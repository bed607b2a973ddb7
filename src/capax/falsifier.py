"""Randomized audits and counterexample hunting for the inequality
checkers.

Per-trial generators derive their RNG from (master seed, trial index), so
summaries are deterministic and independent of scheduling.  Scenarios are
fully materialized (explicit tables and value lists), so every recorded
violation replays without reference to the generator.

Each audited theorem is one ``Theorem`` record in ``THEOREMS``; the id
lists, the alias table, ``DROPPABLE``, scenario generation, replay, audits
and hunts all read that table.

An audit draws its trials one by one and evaluates them in chunks: each
chunk is decoded into one stack (``decode``) and its record's runner
evaluates all rows at once.  Replay decodes exactly as the CLI reads a
scenario file, through ``scenario.context_from_specs``, with the same
checks and errors.  A hunt evaluates its trials in chunks of 1,
2, 4, ... and a shrink step all its candidates as one stack; replay runs
a stack of one row through the same runners.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict
from functools import partial
from typing import Callable, Optional

import numpy as np

from . import inequalities as ineq
from .capacity import CapacityStack, random_monotone_table, subset_rows
from .integrals import Values
from .operators import builtin_systems, get_op, get_system
from .scenario import SchemaError, context_from_specs
from .xreal import DomainError

MAX_SHRINK_STEPS = 200
#: an audit chunk ends once its scenarios hold this many table entries
#: and points, which bounds the memory of its stack; four times as many
#: cells gave under 10 % more audit throughput for about 1 MB more peak
#: memory (measurements in CHANGES.md)
AUDIT_CHUNK_CELLS = 1 << 12

SUGENO_SYSTEM_NAMES = [s.name for s in builtin_systems()]


@dataclass
class Scenario:
    """A fully materialized, replayable checker input."""

    theorem: str
    seed: int
    space: dict
    capacity: dict
    functions: dict
    subsets: dict
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        return cls(**d)


@dataclass
class AuditSummary:
    theorem: str
    trials: int
    hypothesis_pass: int
    violations: list
    min_slack: float
    seed: int

    @property
    def violation_count(self) -> int:
        return len(self.violations)


@dataclass(frozen=True)
class Theorem:
    """One audited theorem.

    ``generate(rng, n, system)`` draws a hypothesis-satisfying scenario's
    (space, capacity, functions, subsets, params) from the trial stream;
    ``system`` is the operator system named in ``<theorem>:<system>``,
    else None, and ``systems`` lists the names it may take.  ``run(stack)``
    calls the checker's row form (looked up in ``inequalities`` at call
    time) and returns one report per row.  ``drop`` maps each droppable
    hypothesis to a generator ``(rng, n, system)`` that does not enforce
    it.
    """

    generate: Callable
    run: Callable
    alias: Optional[str] = None
    drop: dict = field(default_factory=dict)
    systems: tuple = ()


# ---------------------------------------------------------------------------
# scenario generation


def _trial_rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, i])


def _pick(rng, seq):
    """One element of seq, drawn as rng.choice(seq) draws it (same value,
    same use of the stream) without converting seq to an array."""
    return seq[rng.integers(len(seq))]


def _nonempty_subset(rng, n: int) -> list[int]:
    mask = int(rng.integers(1, 2**n))
    return [i for i in range(n) if (mask >> i) & 1]


def _comonotone_family(rng, n: int, k: int, low: float = 0.0):
    """k pairwise-comonotone functions sharing one point order."""
    perm = rng.permutation(n)
    out = []
    for _ in range(k):
        vals = np.empty(n)
        vals[perm] = np.sort(low + (1.0 - low) * rng.uniform(size=n))
        out.append(vals.tolist())
    return out


def _unit_space_cap(rng, n: int):
    """An n-point space and a random monotone table, validated when decoded."""
    return {"n": n}, {"type": "explicit", "table": random_monotone_table(n, rng).tolist()}


def _coord_space(rng, n: int) -> dict:
    coords = np.sort(rng.uniform(0.02, 1.0, size=n))
    while len(np.unique(coords)) < n:
        coords = np.sort(rng.uniform(0.02, 1.0, size=n))
    return {"n": n, "coords": [float(x) for x in coords],
            "widths": [1.0 / n] * n}


def _submodular_cap(rng, n: int) -> dict:
    if rng.uniform() < 0.2:
        return {"type": "sup"}
    weights = rng.uniform(0.1, 1.0, size=n)
    return {"type": "distorted", "weights": [float(w) for w in weights],
            "gamma": float(rng.uniform(0.3, 1.0))}


EXPONENTS = [1.0, 1.5, 2.0, 3.0]
OUTER = [0.5, 1.0, 2.0]


def _gen_jensen_sugeno(rng, n, system):
    space, cap = _unit_space_cap(rng, n)
    f = rng.uniform(size=n).tolist()
    params = {"op": _pick(rng, ["min", "prod", "dombi"]),
              "s": _pick(rng, [1.5, 2.0, 3.0])}
    return space, cap, {"f": f}, {"A": _nonempty_subset(rng, n)}, params


def _gen_chebyshev_sugeno(rng, n, system):
    space, cap = _unit_space_cap(rng, n)
    f1, f2 = _comonotone_family(rng, n, 2)
    A = _nonempty_subset(rng, n)
    return (space, cap, {"f1": f1, "f2": f2}, {"A": A, "B": A},
            {"system": _pick(rng, SUGENO_SYSTEM_NAMES)})


def _gen_carlson_sugeno(rng, n, system):
    if system is None:
        system = _pick(rng, SUGENO_SYSTEM_NAMES)
    space, cap = _unit_space_cap(rng, n)
    fns = dict(zip("fgh", _comonotone_family(rng, n, 3)))
    A = _nonempty_subset(rng, n)
    params = {"system": system, "p": _pick(rng, EXPONENTS),
              "q": _pick(rng, EXPONENTS), "r": _pick(rng, OUTER),
              "s": _pick(rng, OUTER)}
    return space, cap, fns, {"A": A, "B": A}, params


def _gen_sugeno_pq(rng, n, system):
    space, cap = _unit_space_cap(rng, n)
    fns = dict(zip("fgh", _comonotone_family(rng, n, 3, low=0.2)))
    A = _nonempty_subset(rng, n)
    params = {"p": _pick(rng, EXPONENTS), "q": _pick(rng, EXPONENTS)}
    return space, cap, fns, {"A": A}, params


def _gen_shilkret(rng, n, system):
    space = _coord_space(rng, n)
    f = np.sort(rng.uniform(size=n)).tolist()
    if rng.uniform() < 0.5:
        _, cap = _unit_space_cap(rng, n)
    else:
        cap = {"type": "additive",
               "weights": rng.uniform(0.05, 1.0 / n, size=n).tolist()}
    return space, cap, {"f": f}, {"A": list(range(n))}, {}


def _gen_lukasiewicz(rng, n, system):
    params = {"phi": _pick(rng, ["identity", "square", "sqrt"]),
              "psi": _pick(rng, ["identity", "square", "sqrt"]),
              "n": int(rng.integers(50, 201)),
              "p": _pick(rng, EXPONENTS), "q": _pick(rng, EXPONENTS)}
    return {"n": params["n"]}, {"type": "grid"}, {}, {}, params


def _gen_jensen_choquet(rng, n, system):
    space, cap = _unit_space_cap(rng, n)
    f = rng.uniform(size=n).tolist()
    params = {"exponent": _pick(rng, EXPONENTS)}
    return space, cap, {"f": f}, {"A": _nonempty_subset(rng, n)}, params


def _gen_chebyshev_choquet(rng, n, system):
    space, cap = _unit_space_cap(rng, n)
    f, g = _comonotone_family(rng, n, 2)
    return space, cap, {"f": f, "g": g}, {"A": _nonempty_subset(rng, n)}, {}


def _gen_choquet_comonotone(rng, n, system):
    space, cap = _unit_space_cap(rng, n)
    fns = dict(zip("fgh", _comonotone_family(rng, n, 3, low=0.2)))
    params = {"p": _pick(rng, [1.0, 2.0, 3.0]), "q": _pick(rng, [1.0, 2.0, 3.0]),
              "r": _pick(rng, OUTER), "s": _pick(rng, OUTER)}
    return space, cap, fns, {"A": _nonempty_subset(rng, n)}, params


def _gen_distorted(rng, n, system, keys, coords):
    """Submodular capacity (sup, or distorted with gamma <= 1) and
    independent values on the whole space."""
    space = _coord_space(rng, n) if coords else {"n": n}
    cap = _submodular_cap(rng, n)
    vals = rng.uniform(0.05, 1.0, size=(3, n))
    params = {"p": _pick(rng, [1.5, 2.0, 3.0])}
    return (space, cap, {k: v.tolist() for k, v in zip(keys, vals)},
            {"A": list(range(n))}, params)


def _drop_order(rng, n, system, keys, low, sugeno, exponents):
    """Independent (unordered) functions under the uniform additive
    capacity: neither comonotone nor positively dependent in general.  A
    Sugeno theorem keeps the named system, or draws one last."""
    fns = {k: rng.uniform(low, 1.0, size=n).tolist() for k in keys}
    params = {}
    if sugeno:
        params["system"] = _pick(rng, SUGENO_SYSTEM_NAMES) if system is None else system
    params.update(exponents)
    everything = list(range(n))
    return ({"n": n}, {"type": "additive", "weights": [1.0 / n] * n}, fns,
            {"A": everything, "B": everything}, params)


def _drop_submodular(rng, n, system, keys):
    """A distorted capacity with gamma > 1, which is supermodular."""
    cap = {"type": "distorted",
           "weights": rng.uniform(0.2, 1.0, size=n).tolist(),
           "gamma": float(rng.uniform(1.5, 3.0))}
    vals = rng.uniform(0.05, 1.0, size=(2, n))
    fns = {keys[0]: vals[0].tolist(), keys[1]: vals[1].tolist()}
    if len(keys) == 3:
        fns[keys[2]] = rng.uniform(0.05, 1.0, size=n).tolist()
    return ({"n": n}, cap, fns, {"A": list(range(n))},
            {"p": _pick(rng, [1.5, 2.0, 3.0])})


def _fgh(checker: str, *exponents: str):
    """Runner for a checker called as (f, g, h, A, c, *exponents)."""
    return lambda st: getattr(ineq, checker + "_rows")(
        st.fns["f"], st.fns["g"], st.fns["h"], st.A, st.cap, *map(st.p, exponents))


def _systems(st) -> list:
    return [get_system(p["system"]) for p in st.params]


CARLSON_EXPONENTS = {"p": 2.0, "q": 2.0, "r": 1.0, "s": 1.0}

THEOREMS = {
    "jensen_sugeno": Theorem(
        _gen_jensen_sugeno,
        lambda st: ineq.jensen_sugeno_rows(
            st.fns["f"], st.cap, st.A, [get_op(op) for op in st.p("op")], st.p("s")),
        alias="2.1"),
    "chebyshev_sugeno": Theorem(
        _gen_chebyshev_sugeno,
        lambda st: ineq.chebyshev_sugeno_rows(
            _systems(st), st.fns["f1"], st.fns["f2"], st.A, st.B, st.cap),
        alias="2.2",
        drop={"positive_dependence": partial(
            _drop_order, keys=("f1", "f2"), low=0.0, sugeno=True, exponents={})}),
    "carlson_sugeno": Theorem(
        _gen_carlson_sugeno,
        lambda st: ineq.carlson_sugeno_rows(
            [s.with_exponents(p["p"], p["q"], p["r"], p["s"])
             for s, p in zip(_systems(st), st.params)],
            st.fns["f"], st.fns["g"], st.fns["h"], st.A, st.B, st.cap),
        alias="2.3",
        drop={"positive_dependence": partial(
            _drop_order, keys="fgh", low=0.2, sugeno=True,
            exponents=CARLSON_EXPONENTS)},
        systems=tuple(SUGENO_SYSTEM_NAMES)),
    "carlson_sugeno_xu": Theorem(_gen_sugeno_pq, _fgh("carlson_sugeno_xu", "p", "q")),
    "carlson_sugeno_wang": Theorem(_gen_sugeno_pq, _fgh("carlson_sugeno_wang", "p", "q")),
    "shilkret_example": Theorem(
        _gen_shilkret,
        lambda st: ineq.shilkret_carlson_example_rows(st.fns["f"], st.A, st.cap)),
    "lukasiewicz_example": Theorem(
        _gen_lukasiewicz,
        lambda st: ineq.lukasiewicz_carlson_example_rows(*map(st.p, ("phi", "psi", "n",
                                                                    "p", "q")))),
    "jensen_choquet": Theorem(
        _gen_jensen_choquet,
        lambda st: ineq.jensen_choquet_rows(st.fns["f"], st.cap, st.A, st.p("exponent"))),
    "chebyshev_choquet": Theorem(
        _gen_chebyshev_choquet,
        lambda st: ineq.chebyshev_choquet_rows(st.fns["f"], st.fns["g"], st.cap, st.A),
        drop={"comonotone": partial(
            _drop_order, keys=("f", "g"), low=0.0, sugeno=False, exponents={})}),
    "carlson_choquet_comonotone": Theorem(
        _gen_choquet_comonotone,
        _fgh("carlson_choquet_comonotone", "p", "q", "r", "s"),
        alias="3.1",
        drop={"comonotone": partial(
            _drop_order, keys="fgh", low=0.2, sugeno=False,
            exponents=CARLSON_EXPONENTS)}),
    "carlson_choquet_submodular": Theorem(
        partial(_gen_distorted, keys="fgh", coords=False),
        _fgh("carlson_choquet_submodular", "p"),
        alias="3.2",
        drop={"submodular": partial(_drop_submodular, keys="fgh")}),
    "carlson_choquet_subadditive": Theorem(
        partial(_gen_distorted, keys="fgh", coords=True),
        _fgh("carlson_choquet_subadditive", "p"),
        alias="3.3"),
    "holder_choquet": Theorem(
        partial(_gen_distorted, keys=("phi", "psi"), coords=False),
        lambda st: ineq.holder_choquet_rows(
            st.fns["phi"], st.fns["psi"], st.cap, st.A, st.p("p")),
        drop={"submodular": partial(_drop_submodular, keys=("phi", "psi"))}),
}

THEOREM_IDS = list(THEOREMS)
THEOREM_ALIASES = {t.alias: name for name, t in THEOREMS.items() if t.alias}
DROPPABLE = {(name, h) for name, t in THEOREMS.items() for h in t.drop}


def canonical_theorem(theorem_id: str) -> str:
    base = THEOREM_ALIASES.get(theorem_id, theorem_id)
    name, colon, system = base.partition(":")
    if name not in THEOREMS:
        raise DomainError(f"unknown theorem id {theorem_id!r}; choose from "
                          f"{THEOREM_IDS + list(THEOREM_ALIASES)}")
    systems = THEOREMS[name].systems
    if colon and system not in systems:
        choices = (f"choose from {list(systems)}" if systems
                   else f"{name!r} takes no ':<system>' suffix")
        raise DomainError(f"unknown theorem id {theorem_id!r}; {choices}")
    return base


def _record(theorem_id: str) -> Theorem:
    return THEOREMS[canonical_theorem(theorem_id).split(":", 1)[0]]


def random_scenario(theorem_id: str, seed: int, trial: int = 0) -> Scenario:
    """Deterministic hypothesis-satisfying scenario for a theorem id
    (``carlson_sugeno:<system>`` selects the operator system)."""
    theorem = canonical_theorem(theorem_id)
    name, colon, system = theorem.partition(":")
    rng = _trial_rng(seed, trial)
    n = int(rng.integers(2, 9))  # 2 to 8 points
    parts = THEOREMS[name].generate(rng, n, system if colon else None)
    return Scenario(theorem, seed, *parts)


# ---------------------------------------------------------------------------
# replay


@dataclass
class Stack:
    """Decoded scenarios of one theorem, one row each: the functions'
    values by name, the subset rows A and B (A defaults to the whole
    space, B to A), the capacities and each row's params."""

    fns: dict
    A: Optional[np.ndarray]
    B: Optional[np.ndarray]
    cap: Optional[CapacityStack]
    params: list

    def p(self, key: str) -> list:
        return [p[key] for p in self.params]


def decode(scenarios: list) -> Stack:
    """One stack of scenarios of one theorem, each read by
    ``context_from_specs`` as the CLI reads a scenario file."""
    params = [scn.params for scn in scenarios]
    if not scenarios[0].functions:  # the checker builds its own space from params
        return Stack({}, None, None, None, params)
    spaces, caps, fns, masks = zip(*(
        context_from_specs(scn.space, scn.capacity, scn.functions, scn.subsets)
        for scn in scenarios))
    n = np.array([space.n for space in spaces])
    N = int(n.max())
    A = subset_rows([m.get("A", space.full_mask) for m, space in zip(masks, spaces)], n, N)
    B = subset_rows([m["B"] for m in masks], n, N) if "B" in masks[0] else A
    return Stack({k: Values.build([f[k] for f in fns]) for k in fns[0]},
                 A, B, CapacityStack(caps), params)


def run_scenario(scn: Scenario) -> ineq.InequalityReport:
    """Replay a scenario through its theorem checker (a stack of one)."""
    return _record(scn.theorem).run(decode([scn]))[0]


def run_stack(scenarios: list) -> list:
    """Reports of scenarios of one theorem, evaluated as one stack.  A
    stack that fails raises the error its first failing scenario raises
    alone."""
    try:
        return _record(scenarios[0].theorem).run(decode(scenarios))
    except Exception:
        for scn in scenarios:
            run_scenario(scn)
        raise


def _first_violation(scenarios: list, require_hypotheses: bool,
                     skip: tuple = ()) -> Optional[int]:
    """Index of the first of the scenarios whose replay is a violation, or
    None, as replaying them one by one in order finds it: they run as one
    stack, and one by one only if the stack fails, a scenario that raises
    one of the ``skip`` errors being passed over."""
    try:
        reports = _record(scenarios[0].theorem).run(decode(scenarios))
    except Exception:  # replayed one by one below, which raises what replay raises
        reports = None
    for i, scn in enumerate(scenarios):
        if reports is None:
            try:
                rep = run_scenario(scn)
            except skip:
                continue
        else:
            rep = reports[i]
        if is_violation(rep, require_hypotheses=require_hypotheses):
            return i
    return None


def is_violation(rep: ineq.InequalityReport,
                 require_hypotheses: bool = True) -> bool:
    if rep.degenerate is not None:
        return False
    if require_hypotheses and not rep.hypotheses_pass:
        return False
    return rep.slack < -ineq.slack_tol(rep.rhs)


# ---------------------------------------------------------------------------
# audits


def _cells(scn: Scenario) -> int:
    return len(scn.capacity.get("table", ())) + scn.space.get("n", 0)


def _chunks(draw: Callable, trials: int, size: Optional[int] = None):
    """The scenarios draw(0), ..., draw(trials - 1) in consecutive chunks,
    each ending once it holds AUDIT_CHUNK_CELLS table entries and points
    or, given a first ``size``, that many scenarios, the size doubling from
    chunk to chunk."""
    chunk, cells = [], 0
    for i in range(trials):
        scn = draw(i)
        chunk.append(scn)
        cells += _cells(scn)
        if cells >= AUDIT_CHUNK_CELLS or len(chunk) == size or i == trials - 1:
            yield chunk
            chunk, cells = [], 0
            size = size and 2 * size


def audit(theorem_id: str, trials: int, seed: int) -> AuditSummary:
    """Run seeded hypothesis-satisfying scenarios and count violations.
    Trials are drawn one by one and evaluated a chunk at a time."""
    theorem = canonical_theorem(theorem_id)
    if trials < 1:
        raise DomainError(f"an audit needs at least one trial, got {trials}")
    hyp_pass = 0
    min_slack = math.inf
    violations: list[Scenario] = []
    for chunk in _chunks(lambda i: random_scenario(theorem, seed, i), trials):
        for scn, rep in zip(chunk, run_stack(chunk)):
            if rep.degenerate is not None or not rep.hypotheses_pass:
                continue
            hyp_pass += 1
            if math.isfinite(rep.slack):
                min_slack = min(min_slack, rep.slack)
            if is_violation(rep):
                violations.append(scn)
    return AuditSummary(theorem, trials, hyp_pass, violations,
                        min_slack if math.isfinite(min_slack) else math.nan,
                        seed)


# ---------------------------------------------------------------------------
# counterexample hunting with hypothesis dropping


def _unconstrained_scenario(theorem: str, dropped: str, seed: int,
                            trial: int) -> Scenario:
    """Like random_scenario but with the named hypothesis not enforced."""
    theorem = canonical_theorem(theorem)
    generate = _record(theorem).drop.get(dropped)
    if generate is None:
        raise DomainError(f"hypothesis {dropped!r} cannot be dropped for {theorem!r}")
    name, colon, system = theorem.partition(":")
    rng = _trial_rng(seed, trial)
    return Scenario(theorem, seed, *generate(rng, int(rng.integers(2, 7)),
                                             system if colon else None))


def _snap(v: float) -> float:
    return round(v * 8.0) / 8.0


def _shrink_candidates(scn: Scenario):
    """Smaller variants: drop one point, or snap values to eighths."""
    n = scn.space.get("n", 0)
    if "coords" not in scn.space and scn.capacity["type"] in ("additive", "distorted") and n > 1:
        for drop in range(n):
            keep = [i for i in range(n) if i != drop]
            cap = dict(scn.capacity)
            cap["weights"] = [cap["weights"][i] for i in keep]
            fns = {k: [v[i] for i in keep] for k, v in scn.functions.items()}
            subs = {}
            ok = True
            for k, v in scn.subsets.items():
                if v == "all":
                    subs[k] = "all"
                    continue
                kept = [keep.index(i) for i in v if i in keep]
                if not kept:
                    ok = False
                    break
                subs[k] = kept
            if not ok:
                continue
            yield Scenario(scn.theorem, scn.seed, {"n": n - 1}, cap, fns,
                           subs, scn.params)
    snapped = {k: [_snap(x) for x in v] for k, v in scn.functions.items()}
    if snapped != scn.functions:
        yield Scenario(scn.theorem, scn.seed, dict(scn.space),
                       dict(scn.capacity), snapped, dict(scn.subsets),
                       scn.params)


def shrink(scn: Scenario, require_hypotheses: bool = False) -> Scenario:
    """Greedy shrink preserving the violation verdict (<= 200 steps): each
    step moves to the first smaller variant that still violates."""
    current = scn
    for _ in range(MAX_SHRINK_STEPS):
        candidates = list(_shrink_candidates(current))
        hit = _first_violation(candidates, require_hypotheses,
                               skip=(DomainError, SchemaError)) if candidates else None
        if hit is None:
            break
        current = candidates[hit]
    return current


def hunt_counterexample(theorem_id: str, dropped_hypothesis: str,
                        trials: int, seed: int) -> Optional[Scenario]:
    """Search for a violating scenario with a hypothesis dropped; returns
    a minimized witness or None (absence is not a proof)."""
    theorem = canonical_theorem(theorem_id)
    droppable = sorted(_record(theorem).drop)
    if dropped_hypothesis not in droppable:
        raise DomainError(
            f"unknown droppable hypothesis {dropped_hypothesis!r} for "
            f"{theorem.split(':', 1)[0]!r}; droppable: {droppable}")
    # chunks of 1, 2, 4, ... trials: a hunt that ends early evaluates few
    # trials past its witness
    draw = partial(_unconstrained_scenario, theorem, dropped_hypothesis, seed)
    for chunk in _chunks(draw, trials, size=1):
        hit = _first_violation(chunk, require_hypotheses=False)
        if hit is not None:
            return shrink(chunk[hit])
    return None
