"""Randomized audits and counterexample hunting for the inequality
checkers.

Trial i of a seed draws from PCG64 seeded with ``trial_words``' hash of
(seed, i), bit for bit the stream of ``numpy.random.default_rng([seed,
i])``, so summaries are deterministic and independent of scheduling; the
keys are hashed a block at a time.  Scenarios are fully materialized
(explicit tables and value lists), so every recorded violation replays
without reference to the generator.

Each audited theorem is one ``Theorem`` record in ``THEOREMS``; the id
lists, the alias table, ``DROPPABLE``, scenario generation, replay, audits
and hunts all read that table.

An audit draws its trials a chunk at a time: each generator writes its
trial's draws straight into the chunk's columns (``Chunk``), and the
chunk checks and builds them as its one stack (``Chunk.stack``) with the
constructors and checks that read a scenario file; its record's runner
evaluates all rows at once.  No scenario dict is built on that path: a
chunk renders a row as its ``Scenario`` only when asked (a violation, a
hunt's witness, ``random_scenario``).  A hunt draws its trials in chunks
of 1, 2, 4, ..., and a shrink step writes its row's candidates into a
new chunk (``Chunk.shrunk``).  Audits, hunts and shrink steps read a
chunk's reports by one rule (``_reports``): a chunk whose stack fails is
replayed row by row from its rendered scenarios.  Replay reads a
scenario with ``scenario.context_from_specs``, as the CLI reads a
scenario file, so both raise the same checks and errors, and stacks it
as a single public call stacks its arguments (``integrals.one_row``).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, asdict
from functools import cache, cached_property, partial
from typing import Callable, Optional

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

from . import inequalities as ineq
from .capacity import (CapacityStack, GroundSpace, explicit_rows, make_sup_capacity, mask_indices,
                       monotone_rows, subset_rows, weighted_rows)
from .integrals import Values, one_row
from .operators import builtin_systems, get_op, get_system
from .scenario import SchemaError, _checked, context_from_specs
from .xreal import DomainError

MAX_SHRINK_STEPS = 200
#: an audit chunk ends once its scenarios hold this many table entries
#: and points, which bounds the memory of its stack; four times as many
#: cells gave under 10 % more audit throughput for about 1 MB more peak
#: memory (measurements in CHANGES.md)
AUDIT_CHUNK_CELLS = 1 << 12
#: audits and hunts hash their trials' seeds this many at a time, as reached
_SEED_BLOCK = 1024

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

    ``generate(rng, n, system, out)`` draws a hypothesis-satisfying
    scenario from the trial stream and writes it as one row of the chunk
    ``out`` (its space, capacity, functions, subsets and params, with the
    ``Chunk`` writers); ``system`` is the operator system named in
    ``<theorem>:<system>``, else None, and ``systems`` lists the names it
    may take.  ``run(stack)`` calls the checker's row form (looked up in
    ``inequalities`` at call time) and returns one report per row.
    ``drop`` maps each droppable hypothesis to a generator of the same
    form that does not enforce it.
    """

    generate: Callable
    run: Callable
    alias: Optional[str] = None
    drop: dict = field(default_factory=dict)
    systems: tuple = ()


# ---------------------------------------------------------------------------
# scenario generation: each trial drawn straight into a chunk's columns


def _index(value, what: str) -> int:
    """A seed or trial index as an int (numpy integers pass), else DomainError."""
    if isinstance(value, (bool, np.bool_)) or not hasattr(value, "__index__") \
            or operator.index(value) < 0:
        raise DomainError(f"{what} must be a non-negative integer, got {value!r}")
    return operator.index(value)


@cache
def _powers(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult**t mod 2**32, for t < count, as a uint32 column."""
    return np.array([init * pow(mult, t, 2**32) % 2**32 for t in range(count)], np.uint32)[:, None]


def _hashed(v: np.ndarray, c: np.ndarray, t: int, k: int) -> np.ndarray:
    """SeedSequence's hash calls t to t + k - 1 with constants c: call t + j on lane j of v."""
    v = (v ^ c[t:t + k]) * c[t + 1:t + k + 1]
    return v ^ v >> 16


def trial_words(seed: int, start: int, stop: int) -> np.ndarray:
    """The PCG64 seeds of trials start, ..., stop - 1: row j holds the four
    uint64 words of ``SeedSequence([seed, start + j]).generate_state(4,
    np.uint64)``, hashed for all keys at once in wrapping uint32 lanes."""
    seed, start = _index(seed, "seed"), _index(start, "trial index")
    high, low = divmod(start, 1 << 32)
    mid = min(stop, high + 1 << 32)
    if mid < stop:  # the keys from mid on have other high words
        return np.concatenate([trial_words(seed, start, mid), trial_words(seed, mid, stop)])
    seed_words = [seed >> s & 0xFFFFFFFF for s in range(0, max(seed.bit_length(), 1), 32)]
    words = seed_words + [low] + [high >> s & 0xFFFFFFFF for s in range(0, high.bit_length(), 32)]
    entropy = np.array(words + [0] * (4 - len(words)), np.uint32)[:, None].repeat(stop - start, 1)
    entropy[len(seed_words)] += np.arange(stop - start, dtype=np.uint32)  # low + j < 2**32
    a = _powers(0x43B0D7E5, 0x931E8875, 4 * len(entropy) + 1)
    pool, t = _hashed(entropy[:4], a, 0, 4), 4
    for src in range(len(entropy)):  # each pool word into the other three, then
        dst = [d for d in range(4) if d != src]  # each word past the pool into all four
        r = _hashed(pool[src] if src < 4 else entropy[src], a, t, len(dst))
        r = np.uint32(0xCA01F9DD) * pool[dst] - np.uint32(0x4973F715) * r
        pool[dst], t = r ^ r >> 16, t + len(dst)
    w = _hashed(pool[[0, 1, 2, 3] * 2], _powers(0x8B51F9DD, 0x58F38DED, 9), 0, 8).astype(np.uint64)
    return np.ascontiguousarray((w[0::2] | w[1::2] << np.uint64(32)).T)


class _Words(ISeedSequence):
    """A ``trial_words`` row, as the seed sequence PCG64 reads it from."""

    def __init__(self, row: np.ndarray):
        self.row = row

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self.row


def _pick(rng, seq):
    """One element of seq, drawn as rng.choice(seq) draws it (same value,
    same use of the stream) without converting seq to an array."""
    return seq[rng.integers(len(seq))]


def _nonempty_mask(rng, n: int) -> int:
    return int(rng.integers(1, 2**n))


def _comonotone_family(rng, n: int, k: int, low: float = 0.0) -> np.ndarray:
    """k pairwise-comonotone functions sharing one point order, as rows."""
    perm = rng.permutation(n)
    vals = np.empty((k, n))  # row by row, the doubles k draws of n would read
    vals[:, perm] = np.sort(low + (1.0 - low) * rng.uniform(size=(k, n)), axis=1)
    return vals


class Chunk:
    """Consecutive trials of one theorem, drawn straight into columns, one
    row per trial.  A generator writes its row with ``space``,
    ``monotone_table`` or ``capacity``, ``values``, ``subsets`` and
    ``params.append``.  The random tables are made monotone in one pass
    per point count (``capacity.monotone_rows``) when the chunk is first
    read.  ``stack()`` builds all rows as one stack; ``chunk[j]``
    renders row j as the Scenario its trial replays as, and
    ``shrunk(j)`` writes row j's shrink candidates into a new chunk."""

    def __init__(self, theorem: str, seed: int, dropped: Optional[str] = None):
        """An empty chunk of the canonical theorem id, its trials drawn
        with the named hypothesis not enforced (None: all enforced)."""
        record = _record(theorem)
        self.generate, self.points = record.generate, 9  # 2 to 8 points
        if dropped is not None:
            self.generate, self.points = record.drop.get(dropped), 7  # 2 to 6
            if self.generate is None:
                raise DomainError(f"hypothesis {dropped!r} cannot be dropped for {theorem!r}")
        name, colon, system = theorem.partition(":")
        self.theorem, self.seed, self.system = theorem, seed, system if colon else None
        self.n, self.coords, self.params = [], [], []
        # per row ("explicit", n, its row of tables[n]) or (kind, weights, gamma)
        self.caps = []
        self.fns, self.masks = {}, {}
        self.uniforms = {}  # per point count, the explicit rows' uniforms
        self.cells = 0  # table entries and points

    def __len__(self) -> int:
        return len(self.n)

    def draw(self, words: np.ndarray) -> None:
        """A trial, drawn into a new row from the stream its ``trial_words`` row seeds."""
        rng = Generator(PCG64(_Words(words)))
        self.generate(rng, int(rng.integers(2, self.points)), self.system, self)
        n = self.n[-1]
        self.cells += n + (2**n if self.caps[-1][0] == "explicit" else 0)

    def space(self, n: int, coords: Optional[np.ndarray] = None) -> None:
        """n points, at ``coords`` in cells of width 1/n if given."""
        self.n.append(n)
        self.coords.append(coords)

    def monotone_table(self, rng, n: int) -> None:
        """A random monotone table on n points, its uniforms drawn now."""
        rows = self.uniforms.setdefault(n, [])
        self.caps.append(("explicit", n, len(rows)))
        rows.append(rng.uniform(size=2**n))

    def capacity(self, kind: str, weights: Optional[np.ndarray] = None,
                 gamma: Optional[float] = None) -> None:
        """An additive, distorted (given gamma), sup or grid capacity."""
        self.caps.append((kind, weights, gamma))

    def values(self, **named) -> None:
        for name, v in named.items():
            self.fns.setdefault(name, []).append(v)

    def subsets(self, **named) -> None:
        """Subsets as int masks."""
        for name, mask in named.items():
            self.masks.setdefault(name, []).append(mask)

    @cached_property
    def tables(self) -> dict:
        """Per point count, the explicit rows' monotone tables as rows."""
        return {n: monotone_rows(np.array(rows)) for n, rows in self.uniforms.items()}

    def stack(self) -> "Stack":
        """The rows as one stack: each function's values pass the test
        ``scenario._nums`` applies (``_checked``), then the spaces,
        capacities, values and subset rows are built by the library's row
        constructors, which check them as the one-scenario readers do.  A
        failing row is not told apart: replay its scenario for its own
        error."""
        if not self.fns:
            return Stack(self.params)
        fns = {name: _joined(rows) for name, rows in self.fns.items()}
        for v, _ in fns.values():
            _checked(v, "function values", allow_inf=True)
        try:
            spaces = GroundSpace.rows(self.n, self.coords, [
                None if c is None else np.full(n, 1.0 / n) for n, c in zip(self.n, self.coords)])
        except ValueError as e:
            raise SchemaError(f"space: {e}")
        caps = [make_sup_capacity(space) if kind == "sup" else None
                for (kind, _, _), space in zip(self.caps, spaces)]
        weighted = [i for i, (kind, _, _) in enumerate(self.caps) if kind in ("additive", "distorted")]
        explicit = [i for i, (kind, _, _) in enumerate(self.caps) if kind == "explicit"]
        try:
            if weighted:
                w, lengths = _joined([self.caps[i][1] for i in weighted])
                built = weighted_rows(w, lengths, [self.caps[i][2] for i in weighted],
                                      [spaces[i] for i in weighted])
                for i, cap in zip(weighted, built):
                    caps[i] = cap
            if explicit:
                tables = [self.tables[n][j] for kind, n, j in self.caps if kind == "explicit"]
                t, lengths = _joined(tables)
                built = explicit_rows(t, lengths, [spaces[i] for i in explicit])
                for i, cap in zip(explicit, built):
                    caps[i] = cap
        except ValueError as e:
            raise SchemaError(f"capacity: {e}")
        for _, lengths in fns.values():
            for m, space in zip(lengths, spaces):
                if m != space.n:
                    raise SchemaError(f"function has {m} values for a {space.n}-point space")
        n = np.array(self.n)
        N = int(n.max())
        F = {name: Values.rows(v, spaces) for name, (v, _) in fns.items()}
        masks = {name: subset_rows(m, n, N) for name, m in self.masks.items()}
        A = masks.get("A", next(iter(F.values())).valid)  # else the whole spaces
        return Stack(self.params, F, A, masks.get("B", A), CapacityStack(caps))

    def shrunk(self, j: int) -> "Chunk":
        """Row j's shrink candidates as a new chunk, in order: for a
        weighted capacity on a space without coordinates, the row without
        point x, for each x while every subset keeps a point; then the row
        with its values snapped to eighths, if that changes any."""
        out = Chunk(self.theorem, self.seed)
        n, coords, (kind, a, b), params = self.n[j], self.coords[j], self.caps[j], self.params[j]
        fns = {name: rows[j] for name, rows in self.fns.items()}
        masks = {name: m[j] for name, m in self.masks.items()}
        if coords is None and kind in ("additive", "distorted") and n > 1:
            for x in range(n):
                low = (1 << x) - 1  # bit x leaves each mask, the bits above move down
                kept = {name: m & low | m >> 1 & ~low for name, m in masks.items()}
                if all(kept.values()):
                    out.space(n - 1)
                    out.capacity(kind, np.delete(a, x), b)
                    out.values(**{name: np.delete(v, x) for name, v in fns.items()})
                    out.subsets(**kept)
                    out.params.append(params)
        snapped = {name: np.round(v * 8.0) / 8.0 for name, v in fns.items()}
        if any((snapped[name] != v).any() for name, v in fns.items()):
            out.space(n, coords)
            if kind == "explicit":  # its uniforms, made the same monotone table
                out.uniforms[n] = [self.uniforms[a][b]]
                out.caps.append((kind, n, 0))
            else:
                out.capacity(kind, a, b)
            out.values(**snapped)
            out.subsets(**masks)
            out.params.append(params)
        return out

    def __getitem__(self, j: int) -> Scenario:
        n = self.n[j]
        space = {"n": n}
        if self.coords[j] is not None:
            space.update(coords=self.coords[j].tolist(), widths=[1.0 / n] * n)
        kind, a, b = self.caps[j]
        capacity = {"type": kind}
        if kind == "explicit":
            capacity["table"] = self.tables[a][b].tolist()
        elif kind in ("additive", "distorted"):
            capacity["weights"] = a.tolist()
            if b is not None:
                capacity["gamma"] = b
        return Scenario(self.theorem, self.seed, space, capacity,
                        {name: rows[j].tolist() for name, rows in self.fns.items()},
                        {name: mask_indices(masks[j]) for name, masks in self.masks.items()},
                        dict(self.params[j]))


def _joined(rows: list) -> tuple:
    """Float rows concatenated in one array, and their lengths."""
    return np.concatenate(rows) if rows else np.empty(0), [len(row) for row in rows]


def _unit_space_cap(rng, n: int, out: Chunk) -> None:
    """An n-point space and a random monotone table."""
    out.space(n)
    out.monotone_table(rng, n)


def _coord_space(rng, n: int, out: Chunk) -> None:
    coords = np.sort(rng.uniform(0.02, 1.0, size=n))
    while len(np.unique(coords)) < n:
        coords = np.sort(rng.uniform(0.02, 1.0, size=n))
    out.space(n, coords)


def _submodular_cap(rng, n: int, out: Chunk) -> None:
    if rng.uniform() < 0.2:
        out.capacity("sup")
    else:
        weights = rng.uniform(0.1, 1.0, size=n)
        out.capacity("distorted", weights, float(rng.uniform(0.3, 1.0)))


EXPONENTS = [1.0, 1.5, 2.0, 3.0]
OUTER = [0.5, 1.0, 2.0]


def _gen_jensen_sugeno(rng, n, system, out):
    _unit_space_cap(rng, n, out)
    out.values(f=rng.uniform(size=n))
    out.params.append({"op": _pick(rng, ["min", "prod", "dombi"]),
                       "s": _pick(rng, [1.5, 2.0, 3.0])})
    out.subsets(A=_nonempty_mask(rng, n))


def _gen_chebyshev_sugeno(rng, n, system, out):
    _unit_space_cap(rng, n, out)
    out.values(**dict(zip(("f1", "f2"), _comonotone_family(rng, n, 2))))
    A = _nonempty_mask(rng, n)
    out.subsets(A=A, B=A)
    out.params.append({"system": _pick(rng, SUGENO_SYSTEM_NAMES)})


def _gen_carlson_sugeno(rng, n, system, out):
    if system is None:
        system = _pick(rng, SUGENO_SYSTEM_NAMES)
    _unit_space_cap(rng, n, out)
    out.values(**dict(zip("fgh", _comonotone_family(rng, n, 3))))
    A = _nonempty_mask(rng, n)
    out.subsets(A=A, B=A)
    out.params.append({"system": system, "p": _pick(rng, EXPONENTS),
                       "q": _pick(rng, EXPONENTS), "r": _pick(rng, OUTER),
                       "s": _pick(rng, OUTER)})


def _gen_sugeno_pq(rng, n, system, out):
    _unit_space_cap(rng, n, out)
    out.values(**dict(zip("fgh", _comonotone_family(rng, n, 3, low=0.2))))
    out.subsets(A=_nonempty_mask(rng, n))
    out.params.append({"p": _pick(rng, EXPONENTS), "q": _pick(rng, EXPONENTS)})


def _gen_shilkret(rng, n, system, out):
    _coord_space(rng, n, out)
    out.values(f=np.sort(rng.uniform(size=n)))
    if rng.uniform() < 0.5:
        out.monotone_table(rng, n)
    else:
        out.capacity("additive", rng.uniform(0.05, 1.0 / n, size=n))
    out.subsets(A=(1 << n) - 1)
    out.params.append({})


def _gen_lukasiewicz(rng, n, system, out):
    params = {"phi": _pick(rng, ["identity", "square", "sqrt"]),
              "psi": _pick(rng, ["identity", "square", "sqrt"]),
              "n": int(rng.integers(50, 201)),
              "p": _pick(rng, EXPONENTS), "q": _pick(rng, EXPONENTS)}
    out.space(params["n"])
    out.capacity("grid")
    out.params.append(params)


def _gen_jensen_choquet(rng, n, system, out):
    _unit_space_cap(rng, n, out)
    out.values(f=rng.uniform(size=n))
    out.params.append({"exponent": _pick(rng, EXPONENTS)})
    out.subsets(A=_nonempty_mask(rng, n))


def _gen_chebyshev_choquet(rng, n, system, out):
    _unit_space_cap(rng, n, out)
    out.values(**dict(zip("fg", _comonotone_family(rng, n, 2))))
    out.subsets(A=_nonempty_mask(rng, n))
    out.params.append({})


def _gen_choquet_comonotone(rng, n, system, out):
    _unit_space_cap(rng, n, out)
    out.values(**dict(zip("fgh", _comonotone_family(rng, n, 3, low=0.2))))
    out.params.append({"p": _pick(rng, [1.0, 2.0, 3.0]), "q": _pick(rng, [1.0, 2.0, 3.0]),
                       "r": _pick(rng, OUTER), "s": _pick(rng, OUTER)})
    out.subsets(A=_nonempty_mask(rng, n))


def _gen_distorted(rng, n, system, out, keys, coords):
    """Submodular capacity (sup, or distorted with gamma <= 1) and
    independent values on the whole space."""
    if coords:
        _coord_space(rng, n, out)
    else:
        out.space(n)
    _submodular_cap(rng, n, out)
    out.values(**dict(zip(keys, rng.uniform(0.05, 1.0, size=(3, n)))))
    out.subsets(A=(1 << n) - 1)
    out.params.append({"p": _pick(rng, [1.5, 2.0, 3.0])})


def _drop_order(rng, n, system, out, keys, low, sugeno, exponents):
    """Independent (unordered) functions under the uniform additive
    capacity: neither comonotone nor positively dependent in general.  A
    Sugeno theorem keeps the named system, or draws one last."""
    out.space(n)
    out.capacity("additive", np.full(n, 1.0 / n))
    out.values(**{k: rng.uniform(low, 1.0, size=n) for k in keys})
    params = {}
    if sugeno:
        params["system"] = _pick(rng, SUGENO_SYSTEM_NAMES) if system is None else system
    params.update(exponents)
    out.params.append(params)
    out.subsets(A=(1 << n) - 1, B=(1 << n) - 1)


def _drop_submodular(rng, n, system, out, keys):
    """A distorted capacity with gamma > 1, which is supermodular."""
    out.space(n)
    out.capacity("distorted", rng.uniform(0.2, 1.0, size=n), float(rng.uniform(1.5, 3.0)))
    vals = rng.uniform(0.05, 1.0, size=(2, n))
    fns = {keys[0]: vals[0], keys[1]: vals[1]}
    if len(keys) == 3:
        fns[keys[2]] = rng.uniform(0.05, 1.0, size=n)
    out.values(**fns)
    out.subsets(A=(1 << n) - 1)
    out.params.append({"p": _pick(rng, [1.5, 2.0, 3.0])})


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
    (``carlson_sugeno:<system>`` selects the operator system): a chunk of
    the one trial, rendered."""
    return _drawn(canonical_theorem(theorem_id), seed, trial)


def _drawn(theorem: str, seed: int, trial: int, dropped: Optional[str] = None) -> Scenario:
    seed, trial = _index(seed, "seed"), _index(trial, "trial index")
    chunk = Chunk(theorem, seed, dropped)
    chunk.draw(trial_words(seed, trial, trial + 1)[0])
    return chunk[0]


# ---------------------------------------------------------------------------
# replay


@dataclass
class Stack:
    """Scenarios of one theorem as one stack, a row each: each row's
    params, the functions' values by name, the subset rows A and B (A
    defaults to the whole space, B to A) and the capacities.  Without
    functions the checker builds its own space from the params."""

    params: list
    fns: dict = field(default_factory=dict)
    A: Optional[np.ndarray] = None
    B: Optional[np.ndarray] = None
    cap: Optional[CapacityStack] = None

    def p(self, key: str) -> list:
        return [p[key] for p in self.params]


def decode(scn: Scenario) -> Stack:
    """A scenario as a stack of one row: read by ``scenario.context_from_specs``
    as the CLI reads a scenario file, and stacked as a single public call
    stacks its arguments (``integrals.one_row``)."""
    if not scn.functions:
        return Stack([scn.params])
    _, cap, fns, masks = context_from_specs(scn.space, scn.capacity, scn.functions, scn.subsets)
    if cap is None:
        raise SchemaError("a scenario with functions needs a capacity")
    a = masks.get("A")  # None: the whole space
    F, (A, B), C = one_row(list(fns.values()), cap, [a, masks.get("B", a)])
    return Stack([scn.params], dict(zip(fns, F)), A, B, C)


def run_scenario(scn: Scenario) -> ineq.InequalityReport:
    """Replay a scenario through its theorem checker (a stack of one)."""
    return _record(scn.theorem).run(decode(scn))[0]


def _reports(chunk: Chunk, skip: tuple = ()):
    """The reports of a chunk's rows, evaluated as its one stack.  If the
    stack fails, its rows are replayed one by one as they are read: a row
    that raises one of the ``skip`` errors reports None, any other error
    propagates, and a failure that no row explains is raised again once
    every row has replayed."""
    try:
        reports = _record(chunk.theorem).run(chunk.stack())
    except Exception:
        explained = False
        for j in range(len(chunk)):
            try:
                yield run_scenario(chunk[j])
            except skip:
                explained = True
                yield None
        if not explained:
            raise
    else:
        yield from reports


def _first_violation(reports) -> Optional[int]:
    """Index of the first of ``reports`` that is a violation, its
    hypotheses aside, or None (a skipped row, reported None, is not)."""
    return next((j for j, rep in enumerate(reports)
                 if rep is not None and is_violation(rep, require_hypotheses=False)), None)


def is_violation(rep: ineq.InequalityReport,
                 require_hypotheses: bool = True) -> bool:
    if rep.degenerate is not None:
        return False
    if require_hypotheses and not rep.hypotheses_pass:
        return False
    return rep.slack < -ineq.slack_tol(rep.rhs)


# ---------------------------------------------------------------------------
# audits


def _chunks(theorem: str, seed: int, trials: int, dropped: Optional[str] = None,
            size: Optional[int] = None):
    """The trials 0, ..., trials - 1 (``Chunk`` and its ``dropped``) in
    consecutive chunks, each ending once it holds AUDIT_CHUNK_CELLS table
    entries and points or, given a first ``size``, that many trials, the
    size doubling from chunk to chunk."""
    chunk = Chunk(theorem, seed, dropped)
    for start in range(0, trials, _SEED_BLOCK):
        block = trial_words(seed, start, min(start + _SEED_BLOCK, trials))
        for i, words in enumerate(block, start):
            chunk.draw(words)
            if chunk.cells >= AUDIT_CHUNK_CELLS or len(chunk) == size or i == trials - 1:
                yield chunk
                chunk = Chunk(theorem, seed, dropped)
                size = size and 2 * size


def audit(theorem_id: str, trials: int, seed: int) -> AuditSummary:
    """Run seeded hypothesis-satisfying scenarios and count violations.
    Trials are drawn a chunk at a time and evaluated as its stack; only
    violations are rendered as scenarios."""
    theorem, seed = canonical_theorem(theorem_id), _index(seed, "seed")
    if trials < 1:
        raise DomainError(f"an audit needs at least one trial, got {trials}")
    hyp_pass = 0
    min_slack = math.inf
    violations: list[Scenario] = []
    for chunk in _chunks(theorem, seed, trials):
        for j, rep in enumerate(_reports(chunk)):
            if rep.degenerate is not None or not rep.hypotheses_pass:
                continue
            hyp_pass += 1
            if math.isfinite(rep.slack):
                min_slack = min(min_slack, rep.slack)
            if is_violation(rep):
                violations.append(chunk[j])
    return AuditSummary(theorem, trials, hyp_pass, violations,
                        min_slack if math.isfinite(min_slack) else math.nan,
                        seed)


# ---------------------------------------------------------------------------
# counterexample hunting with hypothesis dropping


def _unconstrained_scenario(theorem: str, dropped: str, seed: int,
                            trial: int) -> Scenario:
    """Like random_scenario but with the named hypothesis not enforced."""
    return _drawn(canonical_theorem(theorem), seed, trial, dropped)


def shrink(chunk: Chunk, j: int) -> Scenario:
    """Row j of the chunk, shrunk greedily while it still violates (at
    most MAX_SHRINK_STEPS steps): each step evaluates the row's candidates
    (``Chunk.shrunk``) as one stack and moves to the first that violates,
    a candidate that fails validation being passed over."""
    for _ in range(MAX_SHRINK_STEPS):
        candidates = chunk.shrunk(j)
        if not candidates:
            break
        hit = _first_violation(_reports(candidates, skip=(DomainError, SchemaError)))
        if hit is None:
            break
        chunk, j = candidates, hit
    return chunk[j]


def hunt_counterexample(theorem_id: str, dropped_hypothesis: str,
                        trials: int, seed: int) -> Optional[Scenario]:
    """Search for a violating scenario with a hypothesis dropped; returns
    a minimized witness or None (absence is not a proof)."""
    theorem, seed = canonical_theorem(theorem_id), _index(seed, "seed")
    droppable = sorted(_record(theorem).drop)
    if dropped_hypothesis not in droppable:
        raise DomainError(
            f"unknown droppable hypothesis {dropped_hypothesis!r} for "
            f"{theorem.split(':', 1)[0]!r}; droppable: {droppable}")
    if trials < 1:
        raise DomainError(f"a hunt needs at least one trial, got {trials}")
    # chunks of 1, 2, 4, ... trials: a hunt that ends early draws few
    # trials past its witness, and renders only the witness it shrinks
    for chunk in _chunks(theorem, seed, trials, dropped_hypothesis, size=1):
        hit = _first_violation(_reports(chunk))
        if hit is not None:
            return shrink(chunk, hit)
    return None
