"""Finite ground spaces, monotone measures (capacities), and structural checkers.

Subsets of an n-point space are n-bit integer masks.  Structured
capacities (additive, grid, distorted, sup) evaluate any mask on demand;
explicit tables hold all 2^n values and are capped at n = 20.  Bulk work
converts masks to boolean membership arrays once and measures stacks of
them with ``Capacity.measure_meet``.

The structural checkers compute the margins of all their pairs at once,
from the capacity's value table (``Capacity.values``, n <= 20).  Sampled
mode draws all its pairs in one batch from the same random stream the
per-pair draws used, so a seed gives the same pairs, slack and witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .xreal import EXTENDED, UNIT, DegenerateInputError, DomainError

MAX_EXPLICIT_N = 20
#: exhaustive checks run when the relevant pair count stays below this
EXHAUSTIVE_PAIR_LIMIT = 10**6
SAMPLED_TRIALS = 10**5
MODULAR_TOL = 1e-12


class InvalidCapacityError(ValueError):
    """A capacity axiom (empty set, positivity, range) is violated."""


@dataclass(frozen=True)
class GroundSpace:
    """Finite indexed point set, optionally carrying grid coordinates."""

    n: int
    coords: Optional[tuple] = None
    widths: Optional[tuple] = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("a ground space needs at least one point")
        if (self.coords is None) != (self.widths is None):
            raise ValueError("coords and widths must be given together")
        if self.coords is not None:
            if len(self.coords) != self.n or len(self.widths) != self.n:
                raise ValueError("coords/widths length must equal n")
            # comparisons with NaN are false, so NaN fails every check
            cs = np.asarray(self.coords, dtype=float)
            if not (cs >= 0).all():
                raise ValueError("coordinates must be nonnegative numbers")
            if not (np.diff(cs) > 0).all():
                raise ValueError("coordinates must be strictly increasing")
            if not (np.asarray(self.widths, dtype=float) > 0).all():
                raise ValueError("cell widths must be positive")

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def coord_array(self) -> np.ndarray:
        if self.coords is None:
            raise DomainError("space has no coordinates")
        return np.asarray(self.coords, dtype=float)


#: row b holds the bits of the byte b, least significant first
_BYTE_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1,
                           bitorder="little").view(bool)
_BYTE_BITS.setflags(write=False)


def mask_bools(mask: int, n: int) -> np.ndarray:
    """Membership vector of the subset ``mask`` of an n-point space (bits
    at positions n and above are ignored).  The result may be a read-only
    view."""
    if n <= 8:  # one table row: cheaper than unpacking at this size
        return _BYTE_BITS[mask & 0xFF, :n]
    data = (mask & ((1 << n) - 1)).to_bytes((n + 7) // 8, "little")
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=n,
                         bitorder="little").view(bool)


def mask_indices(mask: int) -> list[int]:
    """Ascending indices of the set bits of ``mask``."""
    return np.flatnonzero(mask_bools(mask, mask.bit_length())).tolist()


def indices_mask(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


@dataclass(frozen=True)
class Capacity:
    """Monotone set function over subsets of a finite ground space.

    ``kind`` is one of ``additive``, ``grid``, ``distorted``, ``sup``,
    ``explicit``, ``derived``.  A derived capacity (from ``normalize``) is
    m(B) = base(B n given) / base(given).  Instances are immutable;
    evaluation is pure.
    """

    space: GroundSpace
    range: str
    kind: str
    weights: Optional[np.ndarray] = field(default=None, compare=False)
    table: Optional[np.ndarray] = field(default=None, compare=False)
    gamma: Optional[float] = None
    base: Optional["Capacity"] = field(default=None, compare=False)
    given: Optional[int] = None

    def __call__(self, mask: int) -> float:
        mask &= self.space.full_mask
        k = self.kind
        if k == "sup":
            return 0.0 if mask == 0 else 1.0
        if k in ("additive", "grid", "distorted"):
            sel = self.weights[mask_bools(mask, self.space.n)]
            # left to right, as a point-by-point sum adds (np.sum is pairwise)
            t = float(np.add.accumulate(sel)[-1]) if sel.size else 0.0
            return t**self.gamma if k == "distorted" else t
        if k == "explicit":
            return float(self.table[mask])
        return self.base(mask & self.given) / self.base(self.given)

    def measure_meet(self, R: np.ndarray, S: np.ndarray) -> np.ndarray:
        """Measures of the pairwise intersections of two stacks of subsets
        given as boolean rows: entry (i, j) is mu(R[i] n S[j])."""
        k = self.kind
        if k in ("additive", "grid", "distorted"):
            out = R.astype(float) @ (self.weights[:, None] * S.T)
            return out**self.gamma if k == "distorted" else out
        if k == "sup":
            return (R.astype(float) @ S.T.astype(float) > 0).astype(float)
        if k == "explicit":  # n <= 20, so table indices fit in int64
            bits = R.astype(np.int64) << np.arange(self.space.n)
            return self.table[bits @ S.T.astype(np.int64)]
        given = mask_bools(self.given, self.space.n)
        return self.base.measure_meet(R & given, S) / self.base(self.given)

    def measure_bools(self, sel: np.ndarray) -> float:
        """Measure of the subset given as a boolean array."""
        everything = np.ones((1, self.space.n), dtype=bool)
        return float(self.measure_meet(sel[None, :], everything)[0, 0])

    def values(self) -> np.ndarray:
        """All 2^n measures, entry m being the measure of the mask m
        (n <= MAX_EXPLICIT_N), equal bit for bit to evaluating each mask."""
        n = self.space.n
        if n > MAX_EXPLICIT_N:
            raise DomainError(f"value tables are capped at n={MAX_EXPLICIT_N}")
        k = self.kind
        if k == "explicit":
            return self.table
        if k == "sup":
            v = np.ones(2**n)
            v[0] = 0.0
            return v
        if k == "derived":
            return (self.base.values()[np.arange(2**n) & self.given]
                    / self.base(self.given))
        # subset sums adding the weights in ascending order, as __call__
        # does; -0.0 is the exact identity of addition (0.0 + -0.0 is 0.0)
        v = np.array([-0.0])
        for w in self.weights.tolist():
            v = np.concatenate((v, v + w))
        v[0] = 0.0
        if k == "distorted":  # Python's pow: numpy's may differ in the last bit
            g = self.gamma
            v = np.array([t**g for t in v.tolist()])
        return v

    def chain_measures(self, order: Sequence[int]) -> np.ndarray:
        """Measures of the nested prefixes of ``order``: entry k is
        the measure of {order[0], ..., order[k-1]} (entry 0 is 0)."""
        order = np.asarray(order, dtype=int)
        k = self.kind
        if k in ("additive", "grid"):
            return np.concatenate(([0.0], np.cumsum(self.weights[order])))
        if k == "distorted":
            return np.concatenate(
                ([0.0], np.cumsum(self.weights[order]) ** self.gamma)
            )
        if k == "sup":
            out = np.ones(len(order) + 1)
            out[0] = 0.0
            return out
        if k == "explicit":  # the prefixes' masks are running sums of bits
            return np.concatenate(([0.0], self.table[np.cumsum(1 << order)]))
        out = np.empty(len(order) + 1)
        out[0] = 0.0
        m = 0
        for j, i in enumerate(order):
            m |= 1 << int(i)
            out[j + 1] = self(m)
        return out

    @property
    def total(self) -> float:
        return self(self.space.full_mask)

    def structural(self, prop: str) -> Optional[bool]:
        """True/False when the property is known by construction, else None."""
        k = self.kind
        if k in ("additive", "grid"):
            return True  # modular, hence everything below it
        if k == "distorted":
            if prop == "monotone":
                return True
            if prop == "modular":
                return True if self.gamma == 1.0 else None
            if self.gamma <= 1.0:  # concave distortion of a modular measure
                return True
            return None
        if k == "sup":
            if prop in ("monotone", "submodular", "subadditive"):
                return True
            return None
        return None


def _infer_range(total: float) -> str:
    return UNIT if total <= 1.0 + 1e-15 else EXTENDED


def make_additive(weights: Sequence[float], space: Optional[GroundSpace] = None) -> Capacity:
    """Additive (modular) capacity from per-point weights."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or len(w) == 0:
        raise InvalidCapacityError("weights must be a nonempty 1-d sequence")
    if not (w >= 0).all():  # also rejects NaN
        raise InvalidCapacityError("weights must be nonnegative numbers")
    if w.sum() == 0:
        raise InvalidCapacityError("all-zero weights: the whole space must have positive measure")
    if space is None:
        space = GroundSpace(len(w))
    elif space.n != len(w):
        raise InvalidCapacityError("weight count must match the space")
    return Capacity(space=space, range=_infer_range(float(w.sum())), kind="additive", weights=w)


def make_sup_capacity(space: GroundSpace) -> Capacity:
    """The {0,1} capacity giving measure 1 to every nonempty set."""
    return Capacity(space=space, range=UNIT, kind="sup")


def make_distorted(weights: Sequence[float], gamma: float,
                   space: Optional[GroundSpace] = None) -> Capacity:
    """Power distortion t -> t**gamma of an additive capacity."""
    if not (gamma > 0) or not math.isfinite(gamma):
        raise InvalidCapacityError("distortion exponent must be positive and finite")
    base = make_additive(weights, space)
    total = float(base.weights.sum() ** gamma)
    return Capacity(space=base.space, range=_infer_range(total),
                    kind="distorted", weights=base.weights, gamma=gamma)


def make_grid_lebesgue(a: float, b: float, steps: int) -> tuple[GroundSpace, Capacity]:
    """Discretized Lebesgue measure on [a, b]: midpoint cells of equal width."""
    if not a < b:
        raise InvalidCapacityError("grid requires a < b")
    if steps < 1:
        raise InvalidCapacityError("grid requires at least one cell")
    h = (b - a) / steps
    coords = a + h * (np.arange(steps) + 0.5)
    widths = np.full(steps, h)
    space = GroundSpace(steps, coords=tuple(coords), widths=tuple(widths))
    cap = Capacity(space=space, range=_infer_range(b - a), kind="grid", weights=widths)
    return space, cap


def make_explicit(table: Sequence[float], space: Optional[GroundSpace] = None,
                  range_tag: Optional[str] = None) -> Capacity:
    """Capacity from a full 2^n value table (monotonicity is checked
    separately via check_monotone, so deliberately broken tables are
    representable)."""
    t = np.asarray(table, dtype=float)
    n = int(round(math.log2(len(t))))
    if 2**n != len(t):
        raise InvalidCapacityError("table length must be a power of two")
    if n > MAX_EXPLICIT_N:
        raise InvalidCapacityError(f"explicit tables are capped at n={MAX_EXPLICIT_N}")
    if t[0] != 0.0:
        raise InvalidCapacityError("the empty set must have measure 0")
    if not t[-1] > 0.0:
        raise InvalidCapacityError("the whole space must have positive measure")
    if not (t >= 0).all():  # also rejects NaN
        raise InvalidCapacityError("capacity values must be nonnegative numbers")
    if space is None:
        space = GroundSpace(n)
    elif space.n != n:
        raise InvalidCapacityError("table size must match the space")
    if range_tag is None:
        range_tag = UNIT if float(t.max()) <= 1.0 else EXTENDED
    if range_tag == UNIT and float(t.max()) > 1.0:
        raise InvalidCapacityError("unit-range capacity has a value above 1")
    return Capacity(space=space, range=range_tag, kind="explicit", table=t)


def make_random_monotone(n: int, rng: np.random.Generator) -> Capacity:
    """Random monotone capacity with mu(X) = 1: i.i.d. uniforms per subset,
    one upward max pass to enforce monotonicity, rescaled."""
    if n > MAX_EXPLICIT_N:
        raise InvalidCapacityError(f"random explicit capacities are capped at n={MAX_EXPLICIT_N}")
    t = rng.uniform(size=2**n)
    t[0] = 0.0
    for i in range(n):  # raise each set with bit i to its subset without it
        v = t.reshape(-1, 2, 1 << i)
        np.maximum(v[:, 1], v[:, 0], out=v[:, 1])
    t /= t[-1]
    return make_explicit(t)


def normalize(c: Capacity, A: int) -> Capacity:
    """The normalized capacity m(B) = mu(A n B) / mu(A)."""
    muA = c(A)
    if muA == 0.0 or math.isinf(muA):
        raise DegenerateInputError("normalize needs 0 < mu(A) < inf")
    return Capacity(space=c.space, range=UNIT, kind="derived", base=c,
                    given=A & c.space.full_mask)


@dataclass
class PropertyReport:
    """Outcome of a structural property check."""

    property: str
    holds: bool
    mode: str  # "exhaustive" | "sampled" | "structural"
    slack: float
    witness: Optional[tuple[int, int]] = None
    trials: Optional[int] = None
    seed: Optional[int] = None


def _worst_pair(prop: str, value, a: np.ndarray, b: np.ndarray):
    """Smallest margin over the pairs of the broadcast arrays a and b
    (negative = violation; the first in C order among equals) and, if it
    is a violation, its pair.  ``value`` maps an array of masks to their
    measures; monotone pairs have b = a | one extra point.  An inf - inf
    margin is no evidence either way and is skipped."""
    with np.errstate(invalid="ignore"):
        va, vb = value(a), value(b)
        if prop == "monotone":
            margins = vb - va
        elif prop == "subadditive":
            margins = va + vb - value(a | b)
        else:
            margins = va + vb - value(a & b) - value(a | b)
            if prop == "modular":
                margins = MODULAR_TOL - np.abs(margins)
    if margins.size == 0:
        return math.inf, None
    j = int(np.argmin(margins))
    if np.isnan(margins.flat[j]):  # argmin stops at the first NaN
        margins[np.isnan(margins)] = math.inf
        j = int(np.argmin(margins))
    slack = float(margins.flat[j])
    if slack >= -MODULAR_TOL:
        return slack, None
    a, b = np.broadcast_arrays(a, b)
    return slack, (int(a.flat[j]), int(b.flat[j]))


def _random_mask(rng: np.random.Generator, n: int) -> int:
    nbytes = (n + 7) // 8
    return int.from_bytes(rng.bytes(nbytes), "little") & ((1 << n) - 1)


def _sampled_pairs(prop: str, n: int, rng: np.random.Generator, trials: int):
    """The random pairs of ``trials`` trials, as int64 arrays for n <= 20
    and as object arrays of Python ints above."""
    full = (1 << n) - 1
    if prop == "monotone":  # a bounded draw per trial: one trial at a time
        pairs = []
        for _ in range(trials):
            a = _random_mask(rng, n)
            free = [i for i in range(n) if not (a >> i) & 1]
            if free:
                pairs.append((a, a | (1 << free[int(rng.integers(len(free)))])))
        dtype = np.int64 if n <= MAX_EXPLICIT_N else object
        ab = np.array(pairs, dtype=dtype).reshape(-1, 2)
        return ab[:, 0], ab[:, 1]
    # rng.bytes(nbytes) takes ceil(nbytes / 4) words of this uint32 stream
    nbytes = (n + 7) // 8
    words = (nbytes + 3) // 4
    u = rng.integers(0, 2**32, size=(trials, 2, words), dtype=np.uint32)
    if n <= MAX_EXPLICIT_N:
        ab = u[..., 0].astype(np.int64) & full
    else:
        rows = u.astype("<u4").reshape(-1, words)
        ab = np.array([int.from_bytes(r.tobytes()[:nbytes], "little") & full
                       for r in rows], dtype=object).reshape(trials, 2)
    return ab[:, 0], ab[:, 1]


def _check_property(prop: str, c: Capacity, mode: str, seed: int,
                    trials: int) -> PropertyReport:
    n = c.space.n
    if prop == "monotone":
        pair_count = n * 2 ** (n - 1)
    else:
        pair_count = 4**n

    if mode == "auto":
        if pair_count <= EXHAUSTIVE_PAIR_LIMIT:
            mode = "exhaustive"
        elif c.structural(prop) is not None:
            mode = "structural"
        else:
            mode = "sampled"

    if mode == "structural":
        known = c.structural(prop)
        if known is None:
            raise DomainError(f"{prop} is not known structurally for kind {c.kind!r}")
        return PropertyReport(prop, known, "structural", slack=0.0)

    if mode == "exhaustive" and pair_count > EXHAUSTIVE_PAIR_LIMIT:
        raise DomainError("pair count too large for exhaustive checking")
    if n <= MAX_EXPLICIT_N:
        value = c.values().__getitem__
    else:  # sampled pairs of a structured capacity: measured one by one
        def value(masks):
            return np.array([c(m) for m in masks.tolist()], dtype=float)

    if mode == "exhaustive":
        masks = np.arange(2**n)
        if prop == "monotone":  # bit by bit, the sets without the bit
            slack, witness = math.inf, None
            for i in range(n):
                a = masks[(masks >> i) & 1 == 0]
                m, w = _worst_pair(prop, value, a, a | (1 << i))
                if m < slack:
                    slack, witness = m, w
        else:
            slack, witness = _worst_pair(prop, value, masks[:, None], masks[None, :])
        return PropertyReport(prop, witness is None, "exhaustive",
                              slack=slack, witness=witness)

    a, b = _sampled_pairs(prop, n, np.random.default_rng(seed), trials)
    slack, witness = _worst_pair(prop, value, a, b)
    return PropertyReport(prop, witness is None, "sampled",
                          slack=slack, witness=witness, trials=trials, seed=seed)


def check_monotone(c: Capacity, mode: str = "auto", seed: int = 0,
                   trials: int = SAMPLED_TRIALS) -> PropertyReport:
    return _check_property("monotone", c, mode, seed, trials)


def check_submodular(c: Capacity, mode: str = "auto", seed: int = 0,
                     trials: int = SAMPLED_TRIALS) -> PropertyReport:
    return _check_property("submodular", c, mode, seed, trials)


def check_subadditive(c: Capacity, mode: str = "auto", seed: int = 0,
                      trials: int = SAMPLED_TRIALS) -> PropertyReport:
    return _check_property("subadditive", c, mode, seed, trials)


def check_modular(c: Capacity, mode: str = "auto", seed: int = 0,
                  trials: int = SAMPLED_TRIALS) -> PropertyReport:
    return _check_property("modular", c, mode, seed, trials)
