"""Finite ground spaces, monotone measures (capacities), and structural checkers.

A subset of an n-point space is an n-bit integer mask at the public
boundary (``Capacity.__call__``, function arguments, scenario files).  A
capacity is one of four families: weighted (per-point weights, summed and
raised to a power gamma; gamma = 1 is modular), sup, explicit (all 2^n
values in a table, capped at n = 20) and derived (a normalized capacity
over a base).

A ``CapacityStack`` holds k capacities as the rows of one stack, and
``subset_rows`` one subset per row as a (k, N) boolean membership row;
the stack's measures, value tables, chains and level meets each sum
per-point weights over their sets and finish the sums by one rule per
family.  A single capacity is a stack of one, which every measure of it
reads.

The structural checkers read the capacity's value table
(``Capacity.values``, n <= 20) when they read at least as many masks as it
holds, else measure the masks a bounded block at a time.  Exhaustive
checks read the table in bounded blocks: monotonicity from two bit views
of it per bit, the pairwise properties on the upper band b >= a.
Sampled mode computes the margins of all its pairs at once, drawn in one
batch from the same random stream the per-pair draws used, so a seed
gives the same pairs, slack and witness.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Sequence

import numpy as np

from .operators import rows_pow
from .xreal import EXTENDED, UNIT, DegenerateInputError, DomainError

MAX_EXPLICIT_N = 20
#: exhaustive checks run when the relevant pair count stays below this
EXHAUSTIVE_PAIR_LIMIT = 10**6
SAMPLED_TRIALS = 10**5
#: membership cells (n per mask) per block of a sampled check that measures its masks
_BLOCK_CELLS = 2**16
MODULAR_TOL = 1e-12


class InvalidCapacityError(ValueError):
    """A capacity axiom (empty set, positivity, range) is violated."""


@dataclass(frozen=True)
class GroundSpace:
    """Finite indexed point set, optionally carrying grid coordinates and cell
    widths, each copied into a read-only float array (spaces compare by n)."""

    n: int
    coords: Optional[np.ndarray] = field(default=None, compare=False)
    widths: Optional[np.ndarray] = field(default=None, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("a ground space needs at least one point")
        if (self.coords is None) != (self.widths is None):
            raise ValueError("coords and widths must be given together")
        if self.coords is not None:
            cs, ws = np.array(self.coords, dtype=float), np.array(self.widths, dtype=float)
            if cs.shape != (self.n,) or ws.shape != (self.n,):
                raise ValueError("coords/widths length must equal n")
            # comparisons with NaN are false, so NaN fails every check
            if not (cs >= 0).all():
                raise ValueError("coordinates must be nonnegative numbers")
            if not (np.diff(cs) > 0).all():
                raise ValueError("coordinates must be strictly increasing")
            if not (ws > 0).all():
                raise ValueError("cell widths must be positive")
            for name, a in (("coords", cs), ("widths", ws)):
                a.setflags(write=False)
                object.__setattr__(self, name, a)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def coord_array(self) -> np.ndarray:
        if self.coords is None:
            raise DomainError("space has no coordinates")
        return self.coords


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
    """The mask with the bits of ``indices`` set (any order, repeats
    allowed), packed from one membership array."""
    ix = np.fromiter(map(operator.index, indices), dtype=np.int64)
    if not len(ix):
        return 0
    if ix.min() < 0:
        raise ValueError("negative point index")
    sel = np.zeros(int(ix.max()) + 1, dtype=bool)
    sel[ix] = True
    return int.from_bytes(np.packbits(sel, bitorder="little").tobytes(), "little")


@dataclass(frozen=True)
class Capacity:
    """Monotone set function over subsets of a finite ground space.

    The fields name the family: weighted (``weights`` and ``gamma``, 1 for
    the modular ones; ``kind`` only labels the scenario spec), ``sup``,
    ``explicit`` (a ``table``) or ``derived`` (``base`` and ``given``,
    from ``normalize``).  Every measure is read from a one-row
    ``CapacityStack``, which holds each family's rule.  Instances are
    immutable; evaluation is pure.
    """

    space: GroundSpace
    range: str
    kind: str
    weights: Optional[np.ndarray] = field(default=None, compare=False)
    table: Optional[np.ndarray] = field(default=None, compare=False)
    gamma: float = 1.0
    base: Optional["Capacity"] = field(default=None, compare=False)
    given: Optional[int] = None

    def __call__(self, mask: int) -> float:
        return float(CapacityStack([self]).measure(mask_bools(mask, self.space.n)[None])[0])

    def measure_bools(self, sel: np.ndarray) -> float:
        """Measure of the subset given as n booleans."""
        return float(CapacityStack([self]).measure(np.asarray(sel, dtype=bool)[None])[0])

    def values(self) -> np.ndarray:
        """All 2^n measures, entry m being the measure of the mask m
        (n <= MAX_EXPLICIT_N), equal bit for bit to evaluating each mask."""
        if self.space.n > MAX_EXPLICIT_N:
            raise DomainError(f"value tables are capped at n={MAX_EXPLICIT_N}")
        # an explicit capacity's own read-only table: no stack to build
        return self.table if self.kind == "explicit" else CapacityStack([self]).values()[0]

    def chain_measures(self, order: Sequence[int]) -> np.ndarray:
        """Measures of the nested prefixes of ``order``: entry k is
        the measure of {order[0], ..., order[k-1]} (entry 0 is 0)."""
        return CapacityStack([self]).chain(np.asarray(order, dtype=int)[None, :])[0]

    @property
    def total(self) -> float:
        return self(self.space.full_mask)

    def structural(self, prop: str) -> Optional[bool]:
        """True/False when the property is known by construction, else None."""
        k = self.kind
        if k == "sup":
            return True if prop in ("monotone", "submodular", "subadditive") else None
        if k in ("explicit", "derived"):
            return None
        # weighted: modular at gamma = 1, a concave distortion of a modular
        # measure (so submodular and subadditive) below it
        g = self.gamma
        return True if prop == "monotone" or g == 1.0 or (g < 1.0 and prop != "modular") else None


def _infer_range(total: float) -> str:
    return UNIT if total <= 1.0 + 1e-15 else EXTENDED


def make_additive(weights: Sequence[float], space: Optional[GroundSpace] = None) -> Capacity:
    """Additive (modular) capacity from per-point weights."""
    w = np.array(weights, dtype=float)  # a copy: the capacity is immutable
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
    w.setflags(write=False)
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
    return replace(base, range=_infer_range(total), kind="distorted", gamma=gamma)


def make_grid_lebesgue(a: float, b: float, steps: int) -> tuple[GroundSpace, Capacity]:
    """Discretized Lebesgue measure on [a, b]: midpoint cells of equal width."""
    if not a < b:
        raise InvalidCapacityError("grid requires a < b")
    if steps < 1:
        raise InvalidCapacityError("grid requires at least one cell")
    h = (b - a) / steps
    space = GroundSpace(steps, coords=a + h * (np.arange(steps) + 0.5),
                        widths=np.full(steps, h))
    # the space's own read-only widths are the weights
    cap = Capacity(space=space, range=_infer_range(b - a), kind="grid", weights=space.widths)
    return space, cap


def make_explicit(table: Sequence[float], space: Optional[GroundSpace] = None,
                  range_tag: Optional[str] = None) -> Capacity:
    """Capacity from a full 2^n value table (monotonicity is checked
    separately via check_monotone, so deliberately broken tables are
    representable)."""
    t = np.array(table, dtype=float)  # a copy: the capacity is immutable
    return _explicit(t, space, range_tag)


def _explicit(t: np.ndarray, space: Optional[GroundSpace],
              range_tag: Optional[str]) -> Capacity:
    """``make_explicit`` of a float table that no one else holds: the
    capacity keeps t itself, made read-only."""
    if t.ndim != 1 or t.size == 0:
        raise InvalidCapacityError(f"a table must be a nonempty 1-d sequence, "
                                   f"got shape {t.shape}")
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
    t.setflags(write=False)
    return Capacity(space=space, range=range_tag, kind="explicit", table=t)


def make_random_monotone(n: int, rng: np.random.Generator) -> Capacity:
    """The explicit capacity of ``random_monotone_table(n, rng)``."""
    return _explicit(random_monotone_table(n, rng), None, None)


def random_monotone_table(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random monotone value table with mu(X) = 1: i.i.d. uniforms per
    subset, one upward max pass to enforce monotonicity, rescaled."""
    if n > MAX_EXPLICIT_N:
        raise InvalidCapacityError(f"random explicit capacities are capped at n={MAX_EXPLICIT_N}")
    t = rng.uniform(size=2**n)
    t[0] = 0.0
    for i in range(n):  # raise each set with bit i to its subset without it
        v = t.reshape(-1, 2, 1 << i)
        np.maximum(v[:, 1], v[:, 0], out=v[:, 1])
    t /= t[-1]
    return t


NORMALIZE_DEGENERATE = "normalize needs 0 < mu(A) < inf"


def normalize(c: Capacity, A: int) -> Capacity:
    """The normalized capacity m(B) = mu(A n B) / mu(A)."""
    muA = c(A)
    if muA == 0.0 or math.isinf(muA):
        raise DegenerateInputError(NORMALIZE_DEGENERATE)
    return Capacity(space=c.space, range=UNIT, kind="derived", base=c,
                    given=A & c.space.full_mask)


# ---------------------------------------------------------------------------
# stacks: k rows evaluated together by the row-wise kernels


def along(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``np.take_along_axis(a, idx, 1)`` for 2-d arrays, as one fancy index."""
    if len(a) == 1:
        return a[0][idx]
    return a[np.arange(len(a))[:, None], idx]


def subset_rows(masks: Sequence[int], n: np.ndarray, N: int) -> np.ndarray:
    """(k, N) membership rows of int masks, row i on its first n[i] points
    (bits at or above n[i] are ignored)."""
    if N >= 63:  # each mask's little-endian bytes, unpacked at once
        nb = (N + 7) // 8
        data = b"".join((m & ((1 << ni) - 1)).to_bytes(nb, "little")
                        for m, ni in zip(masks, n.tolist()))
        return np.unpackbits(np.frombuffer(data, np.uint8).reshape(-1, nb), axis=1, count=N,
                             bitorder="little").view(bool)
    m = np.array([m & ((1 << ni) - 1) for m, ni in zip(masks, n.tolist())], dtype=np.int64)
    if N <= 8:
        return _BYTE_BITS[m, :N]
    return (m[:, None] >> np.arange(N)) & 1 == 1


class CapacityStack:
    """k capacities, row i on its own n[i] points of a stack N points
    wide: the one place that knows what each family measures.  Each row
    has one weight per point in one (k, N) array W: a weighted row's
    weights, 2^x for an explicit row, 1 for a sup row.  Every kernel sums
    those weights over its sets and ``_finish`` turns the sums into
    measures; weighted rows raise theirs to gamma in ``_distort`` by
    ``rows_pow``, the one power rule, so every kernel raises a given sum
    to the same bits.  Explicit rows share one (k, 2^N) table array.  A derived
    stack holds the stack of its bases, the conditioning subsets and their
    base measures.  Every kernel gives each row what its capacity gives
    alone, bit for bit."""

    def __init__(self, caps: Sequence[Capacity], width: Optional[int] = None):
        self.caps = list(caps)
        self.n = np.array([c.space.n for c in self.caps])
        self.N = width or int(self.n.max())
        self.unit = np.array([c.range == UNIT for c in self.caps])
        self.base = None
        kinds = [c.kind for c in self.caps]
        if "derived" in kinds:
            if set(kinds) != {"derived"}:
                raise DomainError("a stack holds derived capacities only with each other")
            self.base = CapacityStack([c.base for c in self.caps], width=self.N)
            self.given = subset_rows([c.given for c in self.caps], self.n, self.N)
            self.base_given = self.base.measure(self.given)
            return
        self.explicit = np.array([i for i, k in enumerate(kinds) if k == "explicit"], dtype=int)
        self.sup = np.array([i for i, k in enumerate(kinds) if k == "sup"], dtype=int)
        # point weights: 2^x for an explicit row makes a set's sum its
        # table index (exact for n <= 20), 1 for a sup row its point count
        self.W = np.zeros((len(self.caps), self.N))
        for i, c in enumerate(self.caps):
            self.W[i, :c.space.n] = (2.0 ** np.arange(c.space.n) if c.kind == "explicit"
                                     else 1.0 if c.kind == "sup" else c.weights)
        # a stack of one full-width explicit row reads its capacity's table in place
        if len(self.caps) == 1 and self.n[0] == self.N and len(self.explicit):
            self.tables = self.caps[0].table[None, :]
        else:
            self.tables = np.zeros((len(self.caps), 2**self.N if len(self.explicit) else 0))
            for i in self.explicit.tolist():
                t = self.caps[i].table
                self.tables[i, :len(t)] = t
        self.gammas = [(c.gamma, i) for i, c in enumerate(self.caps) if c.gamma != 1.0]

    @staticmethod
    def _derived(caps: list, base: "CapacityStack", given: np.ndarray,
                 base_given: np.ndarray) -> "CapacityStack":
        """The stack of m(B) = base(B n given) / base(given), row by row."""
        out = CapacityStack.__new__(CapacityStack)
        out.caps, out.n, out.N, out.unit = caps, base.n, base.N, np.ones(len(caps), bool)
        out.base, out.given, out.base_given = base, given, base_given
        return out

    def __len__(self) -> int:
        return len(self.caps)

    def take(self, rows: np.ndarray) -> "CapacityStack":
        """The stack of the given rows, as wide as this one."""
        caps = [self.caps[i] for i in rows.tolist()]
        if self.base is None:
            return CapacityStack(caps, width=self.N)
        return self._derived(caps, self.base.take(rows), self.given[rows], self.base_given[rows])

    def normalize(self, A: np.ndarray) -> tuple["CapacityStack", np.ndarray]:
        """The stack of normalized capacities m(B) = mu(A n B) / mu(A) of
        the rows where 0 < mu(A) < inf, and those rows."""
        muA = self.measure(A)
        ok = np.flatnonzero((muA != 0.0) & ~np.isinf(muA))
        base = self if len(ok) == len(self) else self.take(ok)
        return self._derived([None] * len(ok), base, A[ok], muA[ok]), ok

    def _finish(self, sums: np.ndarray) -> np.ndarray:
        """Measures from per-row sums of point weights (k, ...), in place:
        explicit rows read their table at the sum, sup rows are 1 where it
        is positive, weighted rows are their sums (gamma is left to the
        kernel)."""
        e = self.explicit
        if len(e):
            at = sums[e].astype(np.int64)
            sums[e] = self.tables[e.reshape((-1,) + (1,) * (at.ndim - 1)), at]
        if len(self.sup):
            sums[self.sup] = sums[self.sup] > 0.0
        return sums

    def _distort(self, out: np.ndarray) -> np.ndarray:
        """Raise the rows of ``out`` with gamma != 1 to their gamma in place."""
        if self.gammas:
            rows = [i for _, i in self.gammas]
            out[rows] = rows_pow(out[rows], [g for g, _ in self.gammas])
        return out

    def measure(self, S: np.ndarray) -> np.ndarray:
        """Measures (k, ...) of the subsets given as (k, ..., N) membership
        rows, with no point at or past the row's point count."""
        k = (len(S),) + (1,) * (S.ndim - 2)  # per-row arrays broadcast on the middle axes
        if self.base is not None:
            return self.base.measure(S & self.given.reshape(k + (-1,))) / self.base_given.reshape(k)
        # left to right, point by point; -0.0 is the exact identity of addition
        # (the last column copied, so that the result pins no (k, ..., N) array)
        sums = np.cumsum(np.where(S, self.W.reshape(k + (-1,)), -0.0), axis=-1)[..., -1].copy()
        sums[~S.any(-1)] = 0.0
        return self._finish(self._distort(sums))

    def values(self) -> np.ndarray:
        """(k, 2^N) measures: entry (i, m) is what ``measure`` gives row i
        for the mask m < 2^n[i] (N <= MAX_EXPLICIT_N), from subset sums
        doubled point by point from -0.0, adding weights in ascending order."""
        if self.base is not None:
            given = (self.given << np.arange(self.N)).sum(1)[:, None]
            return along(self.base.values(), np.arange(2**self.N) & given) / self.base_given[:, None]
        v = np.full((len(self), 2**self.N), -0.0)
        for x, w in enumerate(self.W.T):  # the sets with point x: those without it, plus w
            np.add(v[:, :1 << x], w[:, None], out=v[:, 1 << x:2 << x])
        v[:, 0] = 0.0
        return self._finish(self._distort(v))

    def chain(self, order: np.ndarray) -> np.ndarray:
        """Measures of the nested prefixes of each row of ``order`` (k, W),
        which holds each point at most once: entry (i, j) is the measure of
        {order[i, 0], ..., order[i, j-1]} (entry 0 is 0)."""
        k, W = order.shape
        if self.base is not None:
            # a prefix meets the given set in the prefix of its inside points
            inside = along(self.given, order)
            first = np.argsort(~inside, axis=1, kind="stable")
            chain = self.base.chain(along(order, first))
            pos = np.zeros((k, W + 1), dtype=np.int64)
            pos[:, 1:] = np.cumsum(inside, axis=1)
            return along(chain, pos) / self.base_given[:, None]
        out = np.zeros((k, W + 1))
        np.cumsum(along(self.W, order), axis=1, out=out[:, 1:])
        return self._finish(self._distort(out))

    def level_meet(self, RF: np.ndarray, na, RG: np.ndarray, nb) -> np.ndarray:
        """Per row i, entry (r, s) is the measure of {RF >= r} n {RG >= s}
        for r < na[i] and s < nb[i] (other entries unspecified), RF and RG
        being (k, N) rows of level ranks, -1 for none.  Each point's weight
        goes into the cell of its two ranks, points in index order, and
        suffix sums along g and then f sum the weights of the sets."""
        if self.base is not None:
            inside = np.where(self.given, RF, -1)
            return self.base.level_meet(inside, na, RG, nb) / self.base_given[:, None, None]
        k = len(RF)
        a, b = int(max(na)), int(max(nb))
        r, x = np.nonzero((RF >= 0) & (RG >= 0))
        cells = (r * a + RF[r, x]) * b + RG[r, x]
        out = np.bincount(cells, self.W[r, x], k * a * b).reshape(k, a, b)
        rev = out[:, ::-1, ::-1]  # suffix sums in place, as prefix sums of this view
        np.cumsum(rev, axis=2, out=rev)
        np.cumsum(rev, axis=1, out=rev)
        return self._finish(self._distort(out))


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


def _margins(prop: str, value, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Margins of the pairs of the broadcast mask arrays a and b (negative
    = violation), a fresh array.  ``value`` maps an array of masks to their
    measures; monotone pairs have b = a | one extra point."""
    with np.errstate(invalid="ignore"):
        if prop == "monotone":
            return value(b) - value(a)
        m = value(a) + value(b)
        if prop != "subadditive":
            m -= value(a & b)
        m -= value(a | b)
        if prop == "modular":
            np.subtract(MODULAR_TOL, np.abs(m, out=m), out=m)
    return m


def _worst(blocks) -> tuple[float, Optional[tuple[int, int]]]:
    """The smallest margin over ``blocks`` of (margins, pair) and, if it is
    a violation, its pair of masks ``pair(j)``, j being the margin's flat
    index in its block.  The first minimum in C order wins: argmin's within
    a block, a strict < across blocks, which come in C order.  An inf - inf
    margin (NaN) is no evidence either way and is skipped."""
    slack, worst = math.inf, None
    for margins, pair in blocks:
        if margins.size == 0:
            continue
        j = int(np.argmin(margins))
        if np.isnan(margins.flat[j]):  # argmin stops at the first NaN
            margins[np.isnan(margins)] = math.inf
            j = int(np.argmin(margins))
        m = float(margins.flat[j])
        if m < slack:
            slack, worst = m, (pair, j)
    if slack >= -MODULAR_TOL:
        return slack, None
    pair, j = worst
    return slack, pair(j)


def _worst_pair(prop: str, value, a: np.ndarray, b: np.ndarray):
    """``_worst`` over the pairs of the equal-length mask arrays a and b."""
    return _worst([(_margins(prop, value, a, b), lambda j: (int(a[j]), int(b[j])))])


#: pairs per block of an exhaustive pairwise check, which bounds its
#: temporaries to a few arrays of this many entries (2^13 to 2^14 measured
#: fastest at n = 8 and 9, 2^16 two to three times slower)
_BLOCK_PAIRS = 2**14


def _exhaustive_blocks(prop: str, v: np.ndarray):
    """Every pair's margins from the value table v, in blocks of C order,
    each with its ``pair`` function (see ``_worst``).  Monotone pairs go bit
    by bit: the two halves of ``v.reshape(-1, 2, 1 << i)`` hold the sets
    without bit i and with it, in ascending order.  The other margins are
    symmetric bit for bit (IEEE addition commutes), so rows a0.. read only
    the columns b >= a0: a skipped pair (a, b), b < a0, mirrors the pair
    (b, a) of an earlier block, which comes first in C order."""
    N = len(v)
    if prop == "monotone":
        for i in range(N.bit_length() - 1):
            half = v.reshape(-1, 2, 1 << i)
            with np.errstate(invalid="ignore"):
                margins = half[:, 1] - half[:, 0]

            def pair(j, i=i):
                a = (j >> i << i + 1) | (j & ((1 << i) - 1))
                return a, a | 1 << i
            yield margins, pair
        return
    masks = np.arange(N)
    a0 = 0
    while a0 < N:
        w = N - a0
        rows = max(1, _BLOCK_PAIRS // w)
        margins = _margins(prop, v.__getitem__, masks[a0:a0 + rows, None], masks[a0:])
        yield margins, lambda j, a0=a0, w=w: (a0 + j // w, a0 + j % w)
        a0 += rows


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


_MODES = ("auto", "exhaustive", "sampled", "structural")


def _check_property(prop: str, c: Capacity, mode: str, seed: int,
                    trials: int) -> PropertyReport:
    if mode not in _MODES:
        raise DomainError(f"unknown check mode {mode!r}: expected one of {', '.join(_MODES)}")
    n = c.space.n
    # above MAX_EXPLICIT_N every pair count exceeds the limit: no big integer
    few_pairs = n <= MAX_EXPLICIT_N and (
        n * 2 ** (n - 1) if prop == "monotone" else 4**n) <= EXHAUSTIVE_PAIR_LIMIT

    if mode == "auto":
        if few_pairs:
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

    if mode == "exhaustive":
        if not few_pairs:
            raise DomainError("pair count too large for exhaustive checking")
        slack, witness = _worst(_exhaustive_blocks(prop, c.values()))
        return PropertyReport(prop, witness is None, "exhaustive",
                              slack=slack, witness=witness)

    if trials < 1:
        raise DomainError("a sampled check needs at least one trial")
    # the value table costs 2^n measures: sampled trials that read fewer
    # masks (2 per monotone trial, 4 otherwise) measure them block by block,
    # to the same numbers bit for bit
    reads = trials * (2 if prop == "monotone" else 4)
    if n <= MAX_EXPLICIT_N and (c.kind == "explicit" or 2**n <= reads):
        value = c.values().__getitem__
    else:
        C, step = CapacityStack([c]), max(1, _BLOCK_CELLS // n)

        def value(masks):
            blocks = np.array_split(masks, range(step, len(masks), step))
            return np.concatenate([C.measure(subset_rows(b.tolist(), C.n.repeat(len(b)), n)[None])[0]
                                   for b in blocks])

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
