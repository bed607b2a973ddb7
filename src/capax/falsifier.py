"""Randomized audits and counterexample hunting for the inequality
checkers.

Per-trial generators derive their RNG from (master seed, trial index), so
summaries are deterministic and independent of scheduling.  Scenarios are
fully materialized (explicit tables and value lists), so every recorded
violation replays without reference to the generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict
from typing import Optional

import numpy as np

from . import inequalities as ineq
from .capacity import make_random_monotone
from .integrals import sample_function
from .operators import builtin_systems, get_op, get_system
from .scenario import (SchemaError, capacity_from_spec, capacity_to_spec,
                       space_from_spec, subset_from_spec)
from .xreal import DomainError

VIOLATION_RTOL = 1e-9
MAX_SHRINK_STEPS = 200

SUGENO_SYSTEM_NAMES = [s.name for s in builtin_systems()]

THEOREM_ALIASES = {
    "2.1": "jensen_sugeno",
    "2.2": "chebyshev_sugeno",
    "2.3": "carlson_sugeno",
    "3.1": "carlson_choquet_comonotone",
    "3.2": "carlson_choquet_submodular",
    "3.3": "carlson_choquet_subadditive",
}

THEOREM_IDS = [
    "jensen_sugeno", "chebyshev_sugeno", "carlson_sugeno",
    "carlson_sugeno_xu", "carlson_sugeno_wang",
    "shilkret_example", "lukasiewicz_example",
    "jensen_choquet", "chebyshev_choquet",
    "carlson_choquet_comonotone", "carlson_choquet_submodular",
    "carlson_choquet_subadditive", "holder_choquet",
]


def canonical_theorem(theorem_id: str) -> str:
    base = THEOREM_ALIASES.get(theorem_id, theorem_id)
    name = base.split(":", 1)[0]
    if name not in THEOREM_IDS:
        raise DomainError(f"unknown theorem id {theorem_id!r}")
    return base


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


# ---------------------------------------------------------------------------
# scenario generation


def _trial_rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, i])


def _pick(rng, seq):
    """One element of seq, drawn as rng.choice(seq) draws it (same value,
    same use of the stream) without converting seq to an array."""
    return seq[rng.integers(len(seq))]


def _nonempty_mask(rng, n: int) -> int:
    m = int(rng.integers(1, 2**n))
    return m


def _comonotone_family(rng, n: int, k: int, low: float = 0.0):
    """k pairwise-comonotone functions sharing one point order."""
    perm = rng.permutation(n)
    out = []
    for _ in range(k):
        vals = np.empty(n)
        vals[perm] = np.sort(low + (1.0 - low) * rng.uniform(size=n))
        out.append(vals)
    return out


def _unit_space_cap(rng, n: int):
    return {"n": n}, capacity_to_spec(make_random_monotone(n, rng))


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


def random_scenario(theorem_id: str, seed: int, trial: int = 0,
                    config: Optional[dict] = None) -> Scenario:
    """Deterministic hypothesis-satisfying scenario for a theorem id
    (``carlson_sugeno:<system>`` selects the operator system)."""
    theorem = canonical_theorem(theorem_id)
    config = dict(config or {})
    rng = _trial_rng(seed, trial)
    n_max = int(config.get("n_max", 8))
    n = int(rng.integers(2, n_max + 1))
    name = theorem.split(":", 1)[0]
    params: dict = {}

    if name == "jensen_sugeno":
        space, cap = _unit_space_cap(rng, n)
        f = rng.uniform(size=n)
        params = {"op": _pick(rng, ["min", "prod", "dombi"]),
                  "s": _pick(rng, [1.5, 2.0, 3.0])}
        return Scenario(theorem, seed, space, cap, {"f": f.tolist()},
                        {"A": _mask_list(_nonempty_mask(rng, n), n)}, params)

    if name == "chebyshev_sugeno":
        space, cap = _unit_space_cap(rng, n)
        f1, f2 = _comonotone_family(rng, n, 2)
        A = _nonempty_mask(rng, n)
        params = {"system": _pick(rng, SUGENO_SYSTEM_NAMES)}
        return Scenario(theorem, seed, space, cap,
                        {"f1": f1.tolist(), "f2": f2.tolist()},
                        {"A": _mask_list(A, n), "B": _mask_list(A, n)}, params)

    if name == "carlson_sugeno":
        system = (theorem.split(":", 1)[1] if ":" in theorem
                  else _pick(rng, SUGENO_SYSTEM_NAMES))
        space, cap = _unit_space_cap(rng, n)
        f, g, h = _comonotone_family(rng, n, 3)
        A = _nonempty_mask(rng, n)
        params = {"system": system,
                  "p": _pick(rng, [1.0, 1.5, 2.0, 3.0]),
                  "q": _pick(rng, [1.0, 1.5, 2.0, 3.0]),
                  "r": _pick(rng, [0.5, 1.0, 2.0]),
                  "s": _pick(rng, [0.5, 1.0, 2.0])}
        return Scenario(theorem, seed, space, cap,
                        {"f": f.tolist(), "g": g.tolist(), "h": h.tolist()},
                        {"A": _mask_list(A, n), "B": _mask_list(A, n)}, params)

    if name in ("carlson_sugeno_xu", "carlson_sugeno_wang"):
        space, cap = _unit_space_cap(rng, n)
        f, g, h = _comonotone_family(rng, n, 3, low=0.2)
        A = _nonempty_mask(rng, n)
        params = {"p": _pick(rng, [1.0, 1.5, 2.0, 3.0]),
                  "q": _pick(rng, [1.0, 1.5, 2.0, 3.0])}
        return Scenario(theorem, seed, space, cap,
                        {"f": f.tolist(), "g": g.tolist(), "h": h.tolist()},
                        {"A": _mask_list(A, n)}, params)

    if name == "shilkret_example":
        space = _coord_space(rng, n)
        f = np.sort(rng.uniform(size=n))
        if rng.uniform() < 0.5:
            cap = capacity_to_spec(make_random_monotone(n, rng))
        else:
            cap = {"type": "additive",
                   "weights": [float(w) for w in rng.uniform(0.05, 1.0 / n, size=n)]}
        return Scenario(theorem, seed, space, cap, {"f": f.tolist()},
                        {"A": _mask_list((1 << n) - 1, n)}, {})

    if name == "lukasiewicz_example":
        params = {"phi": _pick(rng, ["identity", "square", "sqrt"]),
                  "psi": _pick(rng, ["identity", "square", "sqrt"]),
                  "n": int(rng.integers(50, 201)),
                  "p": _pick(rng, [1.0, 1.5, 2.0, 3.0]),
                  "q": _pick(rng, [1.0, 1.5, 2.0, 3.0])}
        return Scenario(theorem, seed, {"n": params["n"]}, {"type": "grid"},
                        {}, {}, params)

    if name == "jensen_choquet":
        space, cap = _unit_space_cap(rng, n)
        f = rng.uniform(size=n)
        params = {"exponent": _pick(rng, [1.0, 1.5, 2.0, 3.0])}
        return Scenario(theorem, seed, space, cap, {"f": f.tolist()},
                        {"A": _mask_list(_nonempty_mask(rng, n), n)}, params)

    if name == "chebyshev_choquet":
        space, cap = _unit_space_cap(rng, n)
        f, g = _comonotone_family(rng, n, 2)
        return Scenario(theorem, seed, space, cap,
                        {"f": f.tolist(), "g": g.tolist()},
                        {"A": _mask_list(_nonempty_mask(rng, n), n)}, {})

    if name == "carlson_choquet_comonotone":
        space, cap = _unit_space_cap(rng, n)
        f, g, h = _comonotone_family(rng, n, 3, low=0.2)
        params = {"p": _pick(rng, [1.0, 2.0, 3.0]),
                  "q": _pick(rng, [1.0, 2.0, 3.0]),
                  "r": _pick(rng, [0.5, 1.0, 2.0]),
                  "s": _pick(rng, [0.5, 1.0, 2.0])}
        return Scenario(theorem, seed, space, cap,
                        {"f": f.tolist(), "g": g.tolist(), "h": h.tolist()},
                        {"A": _mask_list(_nonempty_mask(rng, n), n)}, params)

    if name in ("carlson_choquet_submodular", "holder_choquet"):
        space = {"n": n}
        cap = _submodular_cap(rng, n)
        vals = rng.uniform(0.05, 1.0, size=(3, n))
        params = {"p": _pick(rng, [1.5, 2.0, 3.0])}
        if name == "holder_choquet":
            return Scenario(theorem, seed, space, cap,
                            {"phi": vals[0].tolist(), "psi": vals[1].tolist()},
                            {"A": _mask_list((1 << n) - 1, n)}, params)
        return Scenario(theorem, seed, space, cap,
                        {"f": vals[0].tolist(), "g": vals[1].tolist(),
                         "h": vals[2].tolist()},
                        {"A": _mask_list((1 << n) - 1, n)}, params)

    if name == "carlson_choquet_subadditive":
        space = _coord_space(rng, n)
        cap = _submodular_cap(rng, n)
        vals = rng.uniform(0.05, 1.0, size=(3, n))
        params = {"p": _pick(rng, [1.5, 2.0, 3.0])}
        return Scenario(theorem, seed, space, cap,
                        {"f": vals[0].tolist(), "g": vals[1].tolist(),
                         "h": vals[2].tolist()},
                        {"A": _mask_list((1 << n) - 1, n)}, params)

    raise DomainError(f"no generator for theorem {theorem!r}")


def _mask_list(mask: int, n: int) -> list[int]:
    return [i for i in range(n) if (mask >> i) & 1]


# ---------------------------------------------------------------------------
# replay


def run_scenario(scn: Scenario) -> ineq.InequalityReport:
    """Replay a scenario through its theorem checker."""
    name = scn.theorem.split(":", 1)[0]
    p = scn.params

    if name == "lukasiewicz_example":
        return ineq.lukasiewicz_carlson_example(p["phi"], p["psi"], p["n"],
                                                p["p"], p["q"])

    space, grid_cap = space_from_spec(scn.space)
    c = capacity_from_spec(scn.capacity, space, grid_cap)
    fns = {k: sample_function(space, v) for k, v in scn.functions.items()}
    subs = {k: subset_from_spec(v, space) for k, v in scn.subsets.items()}
    A = subs.get("A", space.full_mask)
    B = subs.get("B", A)

    if name == "jensen_sugeno":
        return ineq.jensen_sugeno(fns["f"], c, A, get_op(p["op"]), p["s"])
    if name == "chebyshev_sugeno":
        return ineq.chebyshev_sugeno(get_system(p["system"]), fns["f1"],
                                     fns["f2"], A, B, c)
    if name == "carlson_sugeno":
        system = get_system(p["system"]).with_exponents(p["p"], p["q"],
                                                        p["r"], p["s"])
        return ineq.carlson_sugeno(system, fns["f"], fns["g"], fns["h"],
                                   A, B, c)
    if name == "carlson_sugeno_xu":
        return ineq.carlson_sugeno_xu(fns["f"], fns["g"], fns["h"], A, c,
                                      p["p"], p["q"])
    if name == "carlson_sugeno_wang":
        return ineq.carlson_sugeno_wang(fns["f"], fns["g"], fns["h"], A, c,
                                        p["p"], p["q"])
    if name == "shilkret_example":
        return ineq.shilkret_carlson_example(fns["f"], A, c)
    if name == "jensen_choquet":
        return ineq.jensen_choquet(fns["f"], c, A, p["exponent"])
    if name == "chebyshev_choquet":
        return ineq.chebyshev_choquet(fns["f"], fns["g"], c, A)
    if name == "carlson_choquet_comonotone":
        return ineq.carlson_choquet_comonotone(fns["f"], fns["g"], fns["h"],
                                               A, c, p["p"], p["q"], p["r"],
                                               p["s"])
    if name == "carlson_choquet_submodular":
        return ineq.carlson_choquet_submodular(fns["f"], fns["g"], fns["h"],
                                               A, c, p["p"])
    if name == "carlson_choquet_subadditive":
        return ineq.carlson_choquet_subadditive(fns["f"], fns["g"], fns["h"],
                                                A, c, p["p"])
    if name == "holder_choquet":
        return ineq.holder_choquet(fns["phi"], fns["psi"], c, A, p["p"])
    raise DomainError(f"no checker for theorem {scn.theorem!r}")


def is_violation(rep: ineq.InequalityReport,
                 require_hypotheses: bool = True) -> bool:
    if rep.degenerate is not None:
        return False
    if require_hypotheses and not rep.hypotheses_pass:
        return False
    tol = VIOLATION_RTOL * max(1.0, abs(rep.rhs) if math.isfinite(rep.rhs) else 1.0)
    return rep.slack < -tol


# ---------------------------------------------------------------------------
# audits


def audit(theorem_id: str, trials: int, seed: int,
          config: Optional[dict] = None) -> AuditSummary:
    """Run seeded hypothesis-satisfying scenarios and count violations."""
    theorem = canonical_theorem(theorem_id)
    hyp_pass = 0
    min_slack = math.inf
    violations: list[Scenario] = []
    for i in range(trials):
        scn = random_scenario(theorem, seed, i, config)
        rep = run_scenario(scn)
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

DROPPABLE = {
    ("chebyshev_choquet", "comonotone"),
    ("carlson_choquet_comonotone", "comonotone"),
    ("chebyshev_sugeno", "positive_dependence"),
    ("carlson_sugeno", "positive_dependence"),
    ("holder_choquet", "submodular"),
    ("carlson_choquet_submodular", "submodular"),
}


def _unconstrained_scenario(theorem: str, dropped: str, seed: int,
                            trial: int) -> Scenario:
    """Like random_scenario but with the named hypothesis not enforced."""
    rng = _trial_rng(seed, trial)
    name = theorem.split(":", 1)[0]
    n = int(rng.integers(2, 7))
    if dropped == "comonotone" or dropped == "positive_dependence":
        space = {"n": n}
        cap = {"type": "additive", "weights": [1.0 / n] * n}
        if name in ("chebyshev_choquet", "chebyshev_sugeno"):
            fns = {("f" if name == "chebyshev_choquet" else "f1"):
                   rng.uniform(size=n).tolist(),
                   ("g" if name == "chebyshev_choquet" else "f2"):
                   rng.uniform(size=n).tolist()}
            params = {} if name == "chebyshev_choquet" else {
                "system": _pick(rng, SUGENO_SYSTEM_NAMES)}
        else:
            fns = {"f": rng.uniform(0.2, 1.0, size=n).tolist(),
                   "g": rng.uniform(0.2, 1.0, size=n).tolist(),
                   "h": rng.uniform(0.2, 1.0, size=n).tolist()}
            if name == "carlson_sugeno":
                params = {"system": _pick(rng, SUGENO_SYSTEM_NAMES),
                          "p": 2.0, "q": 2.0, "r": 1.0, "s": 1.0}
            else:
                params = {"p": 2.0, "q": 2.0, "r": 1.0, "s": 1.0}
        A = _mask_list((1 << n) - 1, n)
        return Scenario(theorem, seed, space, cap, fns,
                        {"A": A, "B": A}, params)
    if dropped == "submodular":
        weights = rng.uniform(0.2, 1.0, size=n)
        cap = {"type": "distorted", "weights": [float(w) for w in weights],
               "gamma": float(rng.uniform(1.5, 3.0))}
        vals = rng.uniform(0.05, 1.0, size=(2, n))
        keys = ("phi", "psi") if name == "holder_choquet" else ("f", "g")
        fns = {keys[0]: vals[0].tolist(), keys[1]: vals[1].tolist()}
        if name == "carlson_choquet_submodular":
            fns["h"] = rng.uniform(0.05, 1.0, size=n).tolist()
        return Scenario(theorem, seed, {"n": n}, cap, fns,
                        {"A": _mask_list((1 << n) - 1, n)},
                        {"p": _pick(rng, [1.5, 2.0, 3.0])})
    raise DomainError(f"hypothesis {dropped!r} cannot be dropped for {theorem!r}")


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
    """Greedy shrink preserving the violation verdict (<= 200 steps)."""
    current = scn
    for _ in range(MAX_SHRINK_STEPS):
        for cand in _shrink_candidates(current):
            try:
                rep = run_scenario(cand)
            except (DomainError, SchemaError):
                continue
            if is_violation(rep, require_hypotheses=require_hypotheses):
                current = cand
                break
        else:
            break
    return current


def hunt_counterexample(theorem_id: str, dropped_hypothesis: str,
                        trials: int, seed: int) -> Optional[Scenario]:
    """Search for a violating scenario with a hypothesis dropped; returns
    a minimized witness or None (absence is not a proof)."""
    theorem = canonical_theorem(theorem_id)
    name = theorem.split(":", 1)[0]
    if (name, dropped_hypothesis) not in DROPPABLE:
        raise DomainError(
            f"unknown droppable hypothesis {dropped_hypothesis!r} for {name!r}")
    for i in range(trials):
        scn = _unconstrained_scenario(theorem, dropped_hypothesis, seed, i)
        rep = run_scenario(scn)
        if is_violation(rep, require_hypotheses=False):
            return shrink(scn)
    return None
