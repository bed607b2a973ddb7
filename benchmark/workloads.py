"""The four benchmark workloads.

A workload builds its inputs from the seed in ``setup`` and then runs
*rounds*: one round is a fixed unit of work whose outputs are checked
against answers known independently of capax (analytic values, proven
theorems, or oracles written here in plain numpy).  Each timed unit of a
round is followed by a speed probe (``speed.py``), and a round reports its
times both as wall times and adjusted to a reference machine speed.  Every
capax call goes through a module attribute (``self.cap.check_submodular``),
so the traced run's wrappers see the benchmark's own calls too.

All load is closed loop: one caller, no threads, one CLI process at a time.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from speed import SpeedClock


@dataclass
class RoundResult:
    work: float  # trials, cells, verdicts or invocations
    busy_s: float  # adjusted time the work rate is taken over
    key_s: list  # adjusted samples of the workload's key latency, in seconds
    wall_busy_s: float  # the same two as wall times
    wall_key_s: list
    probes_ms: list  # the speed probes taken during the round
    ops: int = 0  # known-answer checks made
    failures: list = field(default_factory=list)


class Timing:
    """A round's speed clock and busy time."""

    def __init__(self):
        self.sc = SpeedClock()
        self.busy = 0.0

    def time(self, fn, *args, **kwargs):
        """``(fn(*args, **kwargs), wall seconds)``."""
        out, wall = self.sc.time(fn, *args, **kwargs)
        self.busy += wall
        return out, wall

    def result(self, work, chk, key):
        """The round's result; key: its key-latency wall samples."""
        f = self.sc.factor()
        return RoundResult(work, self.busy * f, [k * f for k in key], self.busy,
                           key, self.sc.probes, chk.ops, chk.failures)


def round_seed(seed: int, r: int) -> int:
    return int(np.random.SeedSequence([seed, r]).generate_state(1)[0])


class Checks:
    """Known-answer checks of one round."""

    def __init__(self):
        self.ops = 0
        self.failures = []

    def expect(self, ok, what):
        self.ops += 1
        if not ok:
            self.failures.append(what)


# ---------------------------------------------------------------------------
# audit_sweep


SUGENO_SYSTEMS = ["min", "product", "min_prod", "min_luk", "dombi",
                  "project_first"]
THEOREMS = (["jensen_sugeno", "chebyshev_sugeno", "carlson_sugeno"]
            + [f"carlson_sugeno:{s}" for s in SUGENO_SYSTEMS]
            + ["carlson_sugeno_xu", "carlson_sugeno_wang", "shilkret_example",
               "lukasiewicz_example", "carlson_choquet_comonotone",
               "carlson_choquet_submodular", "carlson_choquet_subadditive",
               "holder_choquet", "jensen_choquet", "chebyshev_choquet"])
DROPPABLE = [("chebyshev_choquet", "comonotone"),
             ("carlson_choquet_comonotone", "comonotone"),
             ("chebyshev_sugeno", "positive_dependence"),
             ("carlson_sugeno", "positive_dependence"),
             ("holder_choquet", "submodular"),
             ("carlson_choquet_submodular", "submodular")]


class AuditSweep:
    """falsifier.audit over the 19 theorem ids, then one hunt per
    droppable hypothesis.  Work: trials; key-latency samples: each
    theorem's audit, in THEOREMS order (the run reports the slowest)."""

    name = "audit_sweep"
    min_rounds = 3

    def __init__(self, seed, smoke, root):
        self.seed = seed
        self.trials = 2 if smoke else 100
        # the library's own tests give hunts 10^4 trials; a hunt stops at
        # its first violation, so the budget only bounds unlucky seeds
        self.hunt_trials = 10_000

    def setup(self):
        from capax import falsifier
        self.fal = falsifier
        self.fal.audit(THEOREMS[0], 1, self.seed)

    def round(self, r, inproc=False):
        # each round audits fresh scenarios, so a run's median is taken over
        # many scenario draws and no single draw of the seed sets it; the
        # hunts replay one seed, as their witnesses are what is checked
        seed = round_seed(self.seed, r)
        hunt_seed = round_seed(self.seed, 0)
        chk = Checks()
        tm = Timing()
        trials = 0
        per_theorem = []
        for theorem in THEOREMS:
            s, wall = tm.time(self.fal.audit, theorem, self.trials, seed)
            per_theorem.append(wall)
            trials += s.trials
            # proven theorems: no trial whose hypotheses hold may violate
            chk.expect(s.violation_count == 0,
                       f"{theorem} seed {seed}: {s.violation_count} violations")
            chk.expect(s.hypothesis_pass >= 0.9 * s.trials,
                       f"{theorem} seed {seed}: only {s.hypothesis_pass}/"
                       f"{s.trials} trials satisfy the hypotheses")
        for theorem, dropped in DROPPABLE:
            # each dropped hypothesis is necessary, so a violation exists
            w = self.fal.hunt_counterexample(theorem, dropped, self.hunt_trials,
                                             hunt_seed)
            chk.expect(w is not None and self.fal.is_violation(
                self.fal.run_scenario(w), require_hypotheses=False),
                f"{theorem} without {dropped}, seed {hunt_seed}: no replayable witness")
        return tm.result(trials, chk, per_theorem)


# ---------------------------------------------------------------------------
# grid_scale


class GridScale:
    """Lebesgue-grid integrals on a size ladder, the 10^5-cell classical
    Carlson check and a comonotone Carlson check small enough for the
    pairwise comonotonicity test.  Work: grid cells; key latency: Carlson."""

    name = "grid_scale"
    min_rounds = 3

    def __init__(self, seed, smoke, root):
        rng = np.random.default_rng([seed, 0])

        def jitter(n):  # up to +0.5 %, so seeds give distinct grids
            return n + int(rng.integers(0, n // 200 + 1))

        sizes = [100, 1000] if smoke else [1000, 10_000, 100_000]
        self.ladder = [(jitter(n), kind) for n in sizes
                       for kind in ("sugeno", "shilkret", "choquet")]
        self.carlson_n = jitter(10_000 if smoke else 100_000)
        self.comonotone_n = jitter(200 if smoke else 2000)
        self.order = rng.permutation(len(self.ladder) + 2)

    def setup(self):
        from capax import capacity, inequalities, integrals
        self.cap, self.ineq, self.itg = capacity, inequalities, integrals
        self.grids = {}
        for n, _ in self.ladder:
            if n not in self.grids:
                space, mu = capacity.make_grid_lebesgue(0.0, 1.0, n)
                self.grids[n] = (integrals.from_formula(space, "x"), mu)
        space, mu = capacity.make_grid_lebesgue(0.0, 100.0, self.carlson_n)
        self.carlson = ([integrals.from_formula(space, s)
                         for s in ("1/(1+x^2)", "const:1", "x^2")], mu)
        space, mu = capacity.make_grid_lebesgue(0.0, 1.0, self.comonotone_n)
        self.comonotone = ([integrals.from_formula(space, s)
                            for s in ("x", "const:1", "x")], mu)
        f, mu = self.grids[self.ladder[0][0]]
        integrals.sugeno(f, mu)

    def _ladder_step(self, n, kind, chk):
        f, mu = self.grids[n]
        value = getattr(self.itg, kind)(f, mu).value
        exact = 0.25 if kind == "shilkret" else 0.5
        chk.expect(abs(value - exact) <= 1.0 / n,
                   f"{kind} of x on {n} cells = {value}, expected {exact}")

    def _carlson_step(self, chk):
        (f, g, h), mu = self.carlson
        rep = self.ineq.carlson_choquet_submodular(f, g, h, None, mu, 2.0)
        target = math.pi / 2
        ratio = rep.rhs / rep.lhs
        chk.expect(rep.hypotheses_pass
                   and abs(rep.lhs - target) < 0.01 * target
                   and abs(rep.rhs - target) < 0.01 * target
                   and 1.0 <= ratio <= 1.02,
                   f"classical Carlson: lhs {rep.lhs}, rhs {rep.rhs}")

    def _comonotone_step(self, chk):
        (f, g, h), mu = self.comonotone
        rep = self.ineq.carlson_choquet_comonotone(f, g, h, None, mu,
                                                   2.0, 2.0, 1.0, 1.0)
        chk.expect(rep.hypotheses_pass and rep.holds,
                   f"comonotone Carlson on x, 1, x: {rep.lhs} vs {rep.rhs}")

    def round(self, r, inproc=False):
        chk = Checks()
        tm = Timing()
        cells = 0
        key = []
        for i in self.order:
            if i < len(self.ladder):
                n, kind = self.ladder[i]
                tm.time(self._ladder_step, n, kind, chk)
            elif i == len(self.ladder):
                n = self.carlson_n
                key.append(tm.time(self._carlson_step, chk)[1])
            else:
                n = self.comonotone_n
                tm.time(self._comonotone_step, chk)
            cells += n
        return tm.result(cells, chk, key)


# ---------------------------------------------------------------------------
# explicit_tables


def _subset_bits(n):
    """Row S holds the indicator vector of subset S."""
    return ((np.arange(2**n)[:, None] >> np.arange(n)) & 1).astype(float)


def _is_monotone(table, n):
    masks = np.arange(2**n)
    for i in range(n):
        lo = masks[(masks >> i) & 1 == 0]
        if (table[lo | (1 << i)] < table[lo]).any():
            return False
    return True


# Known tables: (name, expected verdicts for monotone, modular, submodular,
# subadditive).  Additive weights give a modular table; sup is 1 on every
# nonempty set (submodular, not modular); (|S|/n)^2 is monotone and convex
# in |S| (neither submodular nor subadditive nor modular, for n >= 2).
KNOWN_TABLES = [
    ("additive", {"monotone": True, "modular": True, "submodular": True,
                  "subadditive": True}),
    ("sup", {"monotone": True, "modular": False, "submodular": True,
             "subadditive": True}),
    ("square", {"monotone": True, "modular": False, "submodular": False,
                "subadditive": False}),
]
PROPERTIES = ["monotone", "modular", "submodular", "subadditive"]


class ExplicitTables:
    """make_random_monotone plus the four structural checkers on each n of a
    ladder that straddles the exhaustive-to-sampled switch at n = 10, and
    one known table per n.  Work: verdicts (table builds included in the
    time); key latency: one sampled verdict."""

    name = "explicit_tables"
    min_rounds = 3

    def __init__(self, seed, smoke, root):
        self.seed = seed
        self.ladder = list(range(2, 11)) if smoke else list(range(2, 11)) + [12, 14, 16]
        # the sampled checkers default to 10^5 trials (about 2 s a check);
        # 10^4 keeps one pass over n = 10..16 inside a run
        self.trials = 200 if smoke else 10_000

    def setup(self):
        from capax import capacity
        self.cap = capacity
        self.bits = {n: _subset_bits(n) for n in self.ladder}
        self.cap.check_monotone(self.cap.make_random_monotone(4, np.random.default_rng(self.seed)))

    def _known_table(self, kind, n, rng):
        bits = self.bits[n]
        if kind == "additive":
            return bits @ (rng.uniform(0.1, 1.0, size=n) / n)
        size = bits.sum(axis=1)
        if kind == "sup":
            return (size > 0).astype(float)
        return (size / n) ** 2

    def _verdicts(self, c, expected, label, chk, tm, key):
        for prop in PROPERTIES:
            rep, wall = tm.time(getattr(self.cap, f"check_{prop}"), c,
                                trials=self.trials)
            if rep.mode == "sampled":
                key.append(wall)
            if prop in expected:
                chk.expect(rep.holds == expected[prop],
                           f"{label}: {prop} {'holds' if rep.holds else 'fails'}"
                           f" ({rep.mode}), expected the opposite")

    def round(self, r, inproc=False):
        rng = np.random.default_rng([self.seed, r])
        chk = Checks()
        tm = Timing()
        key = []  # sampled-verdict times
        verdicts = 0
        for n in self.ladder:
            c, _ = tm.time(self.cap.make_random_monotone, n, rng)
            chk.expect(_is_monotone(c.table, n), f"random table n={n} is not monotone")
            self._verdicts(c, {"monotone": True}, f"random n={n}", chk, tm, key)

            kind, expected = KNOWN_TABLES[(n + self.seed + r) % len(KNOWN_TABLES)]
            table = self._known_table(kind, n, rng)
            c, _ = tm.time(self.cap.make_explicit, table)
            self._verdicts(c, expected, f"{kind} n={n}", chk, tm, key)
            verdicts += 2 * len(PROPERTIES)
        return tm.result(verdicts, chk, key)


# ---------------------------------------------------------------------------
# cli_cold


def _level_measures(f, w):
    """Distinct values of f in descending order with mu({f >= v}) for the
    additive capacity with weights w."""
    levels = np.unique(f)[::-1]
    return levels, np.array([w[f >= v].sum() for v in levels])


def _oracle(kind, f, w):
    v, m = _level_measures(np.asarray(f), np.asarray(w))
    if kind == "sugeno":
        return float(np.minimum(v, m).max())
    if kind == "shilkret":
        return float((v * m).max())
    if kind == "choquet":
        return float(np.dot(v - np.append(v[1:], 0.0), m))
    if kind == "dombi":
        return float((v * m / (v + m - v * m)).max())
    raise ValueError(kind)


class CliCold:
    """Fresh ``python -m capax.cli`` processes over small scenario files.
    Work: invocations; key latency: median invocation."""

    name = "cli_cold"
    min_rounds = 9  # 13 invocations a round: >= 10 samples above the p90

    def __init__(self, seed, smoke, root):
        self.seed = seed
        self.root = Path(root)
        self.smoke = smoke
        self.peak_rss_kb = 0  # largest CLI process
        self.dir = self.root / "benchmark" / "out" / f"cli-seed{seed}"

    def _write(self, name, doc):
        path = self.dir / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def setup(self):
        from capax import cli
        self.cli = cli
        rng = np.random.default_rng([self.seed, 0])
        self.dir.mkdir(parents=True, exist_ok=True)
        n = int(rng.integers(3, 7))
        w = rng.uniform(0.1, 1.0, size=n)
        w = w / w.sum() * 0.999  # stays a unit-range capacity
        perm = rng.permutation(n)
        f, g = np.empty(n), np.empty(n)
        f[perm] = np.sort(rng.uniform(0.05, 1.0, size=n))
        g[perm] = np.sort(rng.uniform(0.05, 1.0, size=n))
        gamma = float(rng.choice([0.5, 0.8, 1.5, 2.5]))
        readme = self._write("readme.json", {
            "space": {"n": 3},
            "capacity": {"type": "additive", "weights": [1 / 3, 1 / 3, 1 / 3]},
            "functions": {"f": [0.2, 0.6, 0.9]}})
        seeded = self._write("seeded.json", {
            "space": {"n": n},
            "capacity": {"type": "additive", "weights": w.tolist()},
            "functions": {"f": f.tolist(), "g": g.tolist()}})
        distorted = self._write("distorted.json", {
            "space": {"n": n},
            "capacity": {"type": "distorted", "weights": w.tolist(), "gamma": gamma}})
        audit = self._write("audit.json", {
            "theorem": "3.1", "audit": {"trials": 20, "seed": self.seed}})
        # (arguments, exit code, check on stdout)
        self.commands = [
            (["integrate", readme, "--integral", "sugeno"], 0, ("value", 0.6)),
            (["integrate", readme, "--integral", "shilkret"], 0, ("value", 0.4)),
            (["integrate", readme, "--integral", "choquet"], 0, ("value", 17 / 30)),
            (["integrate", readme, "--integral", "generalized", "--op", "prod"], 0,
             ("value", 0.4)),
        ] + [
            (["integrate", seeded, "--integral", kind] + (["--op", "dombi"] if op else []),
             0, ("value", _oracle("dombi" if op else kind, f, w)))
            for kind, op in (("sugeno", False), ("shilkret", False),
                             ("choquet", False), ("generalized", True))
        ] + [
            # a power distortion of an additive capacity is submodular
            # exactly when it is concave
            (["check", distorted, "--what", "capacity:submodular"],
             0 if gamma < 1 else 1, None),
            (["check", seeded, "--what", "comonotone"], 0, None),
            # comonotone functions have nested level sets, so the joint
            # measure equals the smaller of the two measures: posdep under
            # min holds with equality
            (["check", seeded, "--what", "posdep"], 0, None),
            # under the sup capacity the bound is attained; sup x = 0.995
            # on the 100-cell midpoint grid
            (["demo", "sharpness"], 0, ("sharp", 0.995)),
            (["audit", audit], 0, ("audit", None)),
        ]
        if self.smoke:
            self.commands = self.commands[:1] + self.commands[-3:]
        self._invoke(self.commands[0][0])

    def _invoke(self, argv):
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        with subprocess.Popen([sys.executable, "-m", "capax.cli", *argv], cwd=self.root,
                              env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True) as p:
            stdout = p.stdout.read()
            # reap it here to get this child's own resource usage
            _, status, usage = os.wait4(p.pid, 0)
            p.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return p.returncode, stdout

    def _invoke_inproc(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = self.cli.main(argv)
        return code, out.getvalue()

    @staticmethod
    def _check_output(expect, stdout):
        fields = {}
        for line in stdout.splitlines():
            parts = line.split()
            if len(parts) >= 2:
                fields.setdefault(parts[0], parts[-1])
        if expect is None:
            return True
        what, value = expect
        if what == "value":
            return abs(float(fields["value"]) - value) <= 1e-9
        if what == "sharp":
            lhs, rhs = float(fields["lhs"]), float(fields["rhs"])
            return abs(lhs - value) <= 1e-12 and abs(lhs - rhs) <= 1e-9
        return ", 0 violations," in stdout

    def round(self, r, inproc=False):
        chk = Checks()
        tm = Timing()
        invoke = self._invoke_inproc if inproc else self._invoke
        samples = []
        for argv, code, expect in self.commands:
            (got, stdout), wall = tm.time(invoke, argv)
            samples.append(wall)
            try:
                ok = got == code and self._check_output(expect, stdout)
            except (KeyError, ValueError):
                ok = False
            chk.expect(ok, f"capax {' '.join(argv)}: exit {got}, output {stdout!r}")
        return tm.result(len(samples), chk, samples)


WORKLOADS = {w.name: w for w in (AuditSweep, GridScale, ExplicitTables, CliCold)}

