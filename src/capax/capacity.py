"""Finite ground spaces, monotone measures (capacities), and structural checkers.

A subset of an n-point space is an n-bit integer mask at the public
boundary (``Capacity.__call__``, function arguments, scenario files) and
a boolean membership row inside.  ``subset_rows`` alone unpacks masks:
k of them into (k, N) rows at once, from each mask's own little-endian
bytes, joined (``mask_bools`` is its one row).  A capacity is one of four
families: weighted (per-point weights, summed and raised to a power
gamma; gamma = 1 is modular), sup, explicit (all 2^n values in a table,
capped at n = 20) and derived (a normalized capacity over a base).

A ``CapacityStack`` holds k capacities as the rows of one stack: its
measures of subset rows, value tables, chains and level meets (the rows'
level cross products side by side, walked in bands by ``level_bands``)
each sum per-point weights over their sets and finish the sums by one
rule per family.  A single capacity is a stack of one.

``check_rows`` checks a property on k capacities, and each ``check_*`` is
its one-row case.  Exhaustive rows read their stack's value tables (an
explicit row's own table) in blocks bounded by pairs summed over the rows:
monotonicity from two bit views per bit, the pairwise properties on the
upper band b >= a.  A sampled row reads its table when its trials read as
many masks, else measures them a bounded block at a time; its pairwise
trials are drawn in one batch, its monotone ones a trial at a time.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from itertools import accumulate
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
#: pairs per block of an exhaustive check, summed over its rows, which bounds its temporaries
#: (2^13 to 2^14 measured fastest at n = 8 and 9, 2^16 two to three times slower)
_BLOCK_PAIRS = 2**14
_MODES = ("auto", "exhaustive", "sampled", "structural")
_PROPERTIES = ("monotone", "submodular", "subadditive", "modular")
MODULAR_TOL = 1e-12
#: 2^x for x = 0, ..., MAX_EXPLICIT_N - 1: an explicit capacity's point weights
_POW2 = 2.0 ** np.arange(MAX_EXPLICIT_N)
_POW2.setflags(write=False)


class InvalidCapacityError(ValueError):
    """A capacity axiom (empty set, positivity) is violated."""


@dataclass(frozen=True)
class GroundSpace:
    """Finite indexed point set, optionally carrying grid coordinates and cell
    widths, each copied into a read-only float array (spaces compare by n)."""

    n: int
    coords: Optional[np.ndarray] = field(default=None, compare=False)
    widths: Optional[np.ndarray] = field(default=None, compare=False)

    def __post_init__(self):
        ((n, coords, widths),) = _point_rows([self.n], [self.coords], [self.widths])
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "widths", widths)

    @classmethod
    def rows(cls, n: Sequence[int], coords: Sequence, widths: Sequence) -> list:
        """The spaces of n[i] points with coords[i] and widths[i] (None and
        None for a space without), checked all at once as each space checks
        its own."""
        out = []
        for ni, cs, ws in _point_rows(n, coords, widths):
            space = object.__new__(cls)  # checked above: set the fields as __init__ would
            vars(space).update(n=ni, coords=cs, widths=ws)
            out.append(space)
        return out

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def coord_array(self) -> np.ndarray:
        if self.coords is None:
            raise DomainError("space has no coordinates")
        return self.coords


def _point_rows(n: Sequence[int], coords: Sequence, widths: Sequence) -> list:
    """A ground space's checks, made for k spaces at once: point counts
    n[i] (integers, not bools) and, per row, coordinates and cell widths
    (or None and None).  Returns each row's (n, coords, widths), n a Python
    int and coords and widths read-only float views of one copy of the
    rows' values, or None and None."""
    if any(isinstance(x, bool) or not hasattr(type(x), "__index__") for x in n):
        raise ValueError("point counts must be integers")
    n = list(map(operator.index, n))
    if min(n) < 1:
        raise ValueError("a ground space needs at least one point")
    out = [(ni, None, None) for ni in n]
    rows = [i for i, (c, w) in enumerate(zip(coords, widths)) if c is not None or w is not None]
    if not rows:
        return out
    if any(coords[i] is None or widths[i] is None for i in rows):
        raise ValueError("coords and widths must be given together")
    cs, ws = ([np.array(x[i], dtype=float) for i in rows] for x in (coords, widths))
    if any(c.shape != (n[i],) or w.shape != (n[i],) for i, c, w in zip(rows, cs, ws)):
        raise ValueError("coords/widths length must equal n")
    cs, ws = (x[0] if len(rows) == 1 else np.concatenate(x) for x in (cs, ws))
    ends = list(accumulate(n[i] for i in rows))
    # a minimum with NaN is NaN, so NaN fails every check
    if not np.minimum.reduce(cs) >= 0:
        raise ValueError("coordinates must be nonnegative numbers")
    rise = np.diff(cs)
    if len(rows) > 1:
        rise[[end - 1 for end in ends[:-1]]] = 1.0  # a row's first point follows none of its own
    if not np.minimum.reduce(rise, initial=1.0) > 0:
        raise ValueError("coordinates must be strictly increasing")
    if not np.minimum.reduce(ws) > 0:
        raise ValueError("cell widths must be positive")
    cs.setflags(write=False)
    ws.setflags(write=False)
    for i, end in zip(rows, ends):
        out[i] = n[i], cs[end - n[i]:end], ws[end - n[i]:end]
    return out


def mask_bools(mask: int, n: int) -> np.ndarray:
    """Membership vector of the subset ``mask`` of an n-point space (bits
    at positions n and above are ignored): ``subset_rows``' one row."""
    return subset_rows([mask], [n], n)[0]


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
    return bools_mask(sel)


def bools_mask(sel: np.ndarray) -> int:
    """The mask of a membership vector (``mask_bools`` inverted)."""
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
        return CapacityStack([self]).values()[0]

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
    return weighted_rows(w, [w.size], [None], [space])[0]


def weighted_rows(w: np.ndarray, lengths: Sequence[int], gammas: Sequence,
                  spaces: Sequence[Optional[GroundSpace]]) -> list:
    """The capacities of k rows of weights, concatenated in a float array
    ``w`` that no one else holds (row i holds lengths[i]): additive where
    gammas[i] is None, else the power distortion by gammas[i], on
    spaces[i] (None: a space of its own).  The rows are checked all at
    once as ``make_additive`` and ``make_distorted`` check one, and each
    keeps a read-only view of w."""
    if not all(g is None or (g > 0 and math.isfinite(g)) for g in gammas):
        raise InvalidCapacityError("distortion exponent must be positive and finite")
    if w.ndim != 1 or min(lengths) == 0:
        raise InvalidCapacityError("weights must be a nonempty 1-d sequence")
    if not np.minimum.reduce(w) >= 0:  # also rejects NaN
        raise InvalidCapacityError("weights must be nonnegative numbers")
    w.setflags(write=False)
    rows = [w[end - m:end] for m, end in zip(lengths, accumulate(lengths))]
    totals = [row.sum() for row in rows]  # each row's own sum, as one capacity sums it
    if not all(totals):
        raise InvalidCapacityError("all-zero weights: the whole space must have positive measure")
    if any(space is not None and space.n != m for space, m in zip(spaces, lengths)):
        raise InvalidCapacityError("weight count must match the space")
    return [Capacity(space=GroundSpace(len(row)) if space is None else space,
                     range=_infer_range(float(total if g is None else total ** g)),
                     kind="additive" if g is None else "distorted", weights=row,
                     gamma=1.0 if g is None else g)
            for row, total, g, space in zip(rows, totals, gammas, spaces)]


def make_sup_capacity(space: GroundSpace) -> Capacity:
    """The {0,1} capacity giving measure 1 to every nonempty set."""
    return Capacity(space=space, range=UNIT, kind="sup")


def make_distorted(weights: Sequence[float], gamma: float,
                   space: Optional[GroundSpace] = None) -> Capacity:
    """Power distortion t -> t**gamma of an additive capacity."""
    w = np.array(weights, dtype=float)  # a copy: the capacity is immutable
    return weighted_rows(w, [w.size], [gamma], [space])[0]


def make_grid_lebesgue(a: float, b: float, steps: int) -> tuple[GroundSpace, Capacity]:
    """Discretized Lebesgue measure on [a, b]: midpoint cells of equal width."""
    (cap,) = grid_rows(a, b, [steps])[1]
    return cap.space, cap


def grid_rows(a: float, b: float, steps: Sequence[int]) -> tuple[np.ndarray, list]:
    """The discretized Lebesgue measures on [a, b] in steps[i] midpoint
    cells of equal width, k at once: the (k, N) rows of the cells'
    midpoints (0 past a row's cells) and each grid's capacity on its own
    space, each row with the bits ``make_grid_lebesgue`` gives it alone."""
    if not a < b:
        raise InvalidCapacityError("grid requires a < b")
    steps = np.asarray(steps)
    if steps.dtype.kind not in "iu":
        raise InvalidCapacityError("grid cell counts must be integers")
    if steps.min() < 1:
        raise InvalidCapacityError("grid requires at least one cell")
    h = (b - a) / steps
    x = np.arange(int(steps.max())) + 0.5
    coords = h[:, None] * x
    coords += a
    if steps.min() < len(x):
        coords[x > steps[:, None]] = 0.0  # past a row's cells
    del x  # before the spaces copy their rows
    n = steps.tolist()
    spaces = GroundSpace.rows(n, [c[:m] for c, m in zip(coords, n)],
                              [np.full(m, w) for m, w in zip(n, h.tolist())])
    # each space's own read-only widths are its weights
    return coords, [Capacity(space=space, range=_infer_range(b - a), kind="grid",
                             weights=space.widths) for space in spaces]


def make_explicit(table: Sequence[float], space: Optional[GroundSpace] = None) -> Capacity:
    """Capacity from a full 2^n value table, unit-range where every value
    is at most 1 (monotonicity is checked separately via check_monotone,
    so deliberately broken tables are representable)."""
    t = np.array(table, dtype=float)  # a copy: the capacity is immutable
    return _explicit(t, space)


def _explicit(t: np.ndarray, space: Optional[GroundSpace]) -> Capacity:
    """``make_explicit`` of a float table that no one else holds: the
    capacity keeps a read-only view of t."""
    return explicit_rows(t, [t.size], [space])[0]


def explicit_rows(t: np.ndarray, lengths: Sequence[int],
                  spaces: Sequence[Optional[GroundSpace]]) -> list:
    """The explicit capacities of k value tables, concatenated in a float
    array ``t`` that no one else holds (row i holds lengths[i]), on
    spaces[i] (None: a space of its own), each unit-range where its
    values are at most 1.  The rows are checked all at once as
    ``make_explicit`` checks one, and each keeps a read-only view of t."""
    if t.ndim != 1 or min(lengths) == 0:
        raise InvalidCapacityError(f"a table must be a nonempty 1-d sequence, "
                                   f"got shape {t.shape}")
    if any(m & (m - 1) for m in lengths):
        raise InvalidCapacityError("table length must be a power of two")
    n = [m.bit_length() - 1 for m in lengths]
    if max(n) > MAX_EXPLICIT_N:
        raise InvalidCapacityError(f"explicit tables are capped at n={MAX_EXPLICIT_N}")
    ends = list(accumulate(lengths))
    starts = [end - m for end, m in zip(ends, lengths)]
    # each row's empty set, then its whole space (NaN is nonzero and not > 0)
    corners = t[starts + [end - 1 for end in ends]]
    if np.count_nonzero(corners[:len(ends)]):
        raise InvalidCapacityError("the empty set must have measure 0")
    if np.count_nonzero(corners[len(ends):] > 0.0) < len(ends):
        raise InvalidCapacityError("the whole space must have positive measure")
    if not np.minimum.reduce(t) >= 0:  # also rejects NaN
        raise InvalidCapacityError("capacity values must be nonnegative numbers")
    if any(space is not None and space.n != ni for space, ni in zip(spaces, n)):
        raise InvalidCapacityError("table size must match the space")
    tops = np.maximum.reduceat(t, starts).tolist()
    t.setflags(write=False)
    return [Capacity(space=GroundSpace(ni) if space is None else space,
                     range=UNIT if top <= 1.0 else EXTENDED, kind="explicit",
                     table=t[start:end])
            for ni, space, top, start, end in zip(n, spaces, tops, starts, ends)]


def make_random_monotone(n: int, rng: np.random.Generator) -> Capacity:
    """The explicit capacity of ``random_monotone_table(n, rng)``."""
    return _explicit(random_monotone_table(n, rng), None)


def random_monotone_table(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random monotone value table with mu(X) = 1: i.i.d. uniforms per
    subset, made monotone by ``monotone_rows`` (its one-row case)."""
    if n > MAX_EXPLICIT_N:
        raise InvalidCapacityError(f"random explicit capacities are capped at n={MAX_EXPLICIT_N}")
    return monotone_rows(rng.uniform(size=2**n))


def monotone_rows(t: np.ndarray) -> np.ndarray:
    """Uniforms ``t``, one row of 2^n or (k, 2^n) rows, made monotone value
    tables with mu(X) = 1 in place: each row's empty set set to 0, one
    upward max pass over all rows, then each row divided by its last
    value.  A maximum and a division are exact per element, so each row
    gets the bits it gets alone."""
    t[..., 0] = 0.0
    for i in range(t.shape[-1].bit_length() - 1):  # raise each set with bit i to its subset without it
        v = t.reshape(-1, 2, 1 << i)  # each pair of blocks lies inside one row
        up = v[:, 1]
        np.maximum(up, v[:, 0], out=up)
    t /= t[-1] if t.ndim == 1 else t[:, -1:]  # a scalar divides one row faster
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


def subset_rows(masks: Sequence[int], n: Sequence[int], N: int) -> np.ndarray:
    """(k, N) membership rows of int masks, row i on its first n[i] points
    (bits at or above n[i] are ignored), unpacked at once from each mask's
    own little-endian bytes, joined."""
    nb, n = (N + 7) // 8, np.asarray(n).tolist()
    data = b"".join((m & ((1 << ni) - 1)).to_bytes(nb, "little") for m, ni in zip(masks, n))
    return np.unpackbits(np.frombuffer(data, np.uint8).reshape(len(n), nb), axis=1, count=N,
                         bitorder="little").view(bool)


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

    def __init__(self, caps: Sequence[Capacity]):
        self.caps = list(caps)
        self.n = np.array(n := [c.space.n for c in self.caps])
        self.N = max(n)
        self.unit = np.array([c.range == UNIT for c in self.caps])
        self.base = None
        kinds = [c.kind for c in self.caps]
        if "derived" in kinds:
            if set(kinds) != {"derived"}:
                raise DomainError("a stack holds derived capacities only with each other")
            self.base = CapacityStack([c.base for c in self.caps])
            self.given = subset_rows([c.given for c in self.caps], self.n, self.N)
            self.base_given = self.base.measure(self.given)
            return
        self.explicit = np.array([i for i, k in enumerate(kinds) if k == "explicit"], dtype=int)
        self.sup = np.array([i for i, k in enumerate(kinds) if k == "sup"], dtype=int)
        # point weights: 2^x for an explicit row makes a set's sum its
        # table index (exact for n <= 20), 1 for a sup row its point count
        self.W = np.zeros((len(self.caps), self.N))
        for i, c in enumerate(self.caps):
            self.W[i, :c.space.n] = (_POW2[:c.space.n] if c.kind == "explicit"
                                     else 1.0 if c.kind == "sup" else c.weights)
        # a stack of one full-width explicit row reads its capacity's table in place
        if len(self.caps) == 1 and self.n[0] == self.N and len(self.explicit):
            self.tables = self.caps[0].table[None, :]
        else:
            self.tables = np.zeros((len(self.caps), 2**self.N if len(self.explicit) else 0))
            for i in self.explicit.tolist():
                self.tables[i, :len(self.caps[i].table)] = self.caps[i].table
            self.tables.setflags(write=False)  # ``values()`` hands it out
        self.gammas = [(c.gamma, i) for i, c in enumerate(self.caps) if c.gamma != 1.0]

    def __len__(self) -> int:
        return len(self.caps)

    def normalize(self, A: np.ndarray) -> tuple["CapacityStack", np.ndarray]:
        """The stack of normalized capacities m(B) = mu(A n B) / mu(A), one
        per row, and the mask of the rows where 0 < mu(A) < inf.  A row
        outside the mask divides by 1.0: its measures are finite or inf,
        and no caller reads them."""
        muA = self.measure(A)
        ok = (muA != 0.0) & ~np.isinf(muA)
        out, k = CapacityStack.__new__(CapacityStack), len(self)
        out.caps, out.n, out.N, out.unit = [None] * k, self.n, self.N, np.ones(k, bool)
        out.base, out.given, out.base_given = self, A, np.where(ok, muA, 1.0)
        return out, ok

    def _finish(self, sums: np.ndarray, rows: Optional[np.ndarray] = None) -> np.ndarray:
        """Measures from per-row sums of point weights (k, ...), in place:
        explicit rows read their table at the sum, sup rows are 1 where it
        is positive, weighted rows are their sums (gamma is left to the
        kernel).  sums[j] belongs to stack row rows[j] (to row j if rows is
        None)."""
        e, s = self.explicit, self.sup
        tables = e
        if rows is not None:
            e, s = (np.flatnonzero(np.bincount(x, minlength=len(self.caps))[rows]) if len(x)
                    else x for x in (e, s))
            tables = rows[e]
        if len(e):  # each sum indexes its row's table, read as one flat array
            whole = len(e) == len(sums)
            at = (sums if whole else sums[e]).astype(np.int64)
            at += (tables * self.tables.shape[1]).reshape((-1,) + (1,) * (at.ndim - 1))
            sums[slice(None) if whole else e] = self.tables.take(at)
        if len(s):
            sums[s] = sums[s] > 0.0
        return sums

    def _distort(self, out: np.ndarray, rows: Optional[np.ndarray] = None) -> np.ndarray:
        """Raise the rows of ``out`` with gamma != 1 to their gamma in place
        (out[j] belongs to stack row rows[j], as in ``_finish``)."""
        if self.gammas:
            g, at = map(list, zip(*self.gammas))
            if rows is not None:  # each entry's row's gamma
                gamma = np.ones(len(self.caps))
                gamma[at] = g
                at = np.flatnonzero(gamma[rows] != 1.0)
                g = gamma[rows[at]]
            out[at] = rows_pow(out[at], g)
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
        doubled point by point from -0.0, adding weights in ascending order.
        When every row is explicit, the stack's own read-only tables."""
        if self.base is not None:
            given = (self.given << np.arange(self.N)).sum(1)[:, None]
            return along(self.base.values(), np.arange(2**self.N) & given) / self.base_given[:, None]
        if len(self.explicit) == len(self):
            return self.tables
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

    def level_bands(self, RF: np.ndarray, RG: np.ndarray, rows: np.ndarray, a: np.ndarray,
                    b: np.ndarray, cells: int):
        """The level meets of the stack's rows, side by side in one table
        walked in bands, RF and RG being (k, N) rows of level ranks, -1 for
        none, and ``rows`` every stack row once, in the table's order.  Row
        j of the layout is stack row rows[j] with a[j] f ranks and b[j] g
        ranks: entry (r, s) of its level meet, the measure of {RF >= r} n
        {RG >= s}, is entry r of column off[j] + s of the table, off[j]
        being the sum of the b before it, and its entries at f ranks from
        a[j] up are 0.  The heights a must not increase from row to row.  A
        band is as tall as its first row and holds at most
        max(2, cells // its height) columns: as many whole rows as fit, or
        a run of columns of a row too wide to fit alone.  Yields (c0,
        band), each band in turn, c0 its first column, with the bits a
        whole level meet gives its entries.

        The suffix sums along g are taken once, as runs (``_runs``); a band
        repeats its rows' runs f rank by f rank and takes the suffix sums
        along f viewed as complex128 (with a column of zeros more if it has
        an odd number): a complex add is two float adds, so numpy's
        accumulate walks two columns at a time, with the same bits."""
        if self.base is not None:
            d = np.repeat(self.base_given[rows], b)
            for c0, m in self.base.level_bands(np.where(self.given, RF, -1), RG, rows, a, b,
                                               cells):
                yield c0, np.divide(m, d[c0:c0 + m.shape[1]], out=m)
            return
        val, start, end, first = self._runs(RF, RG, rows, a, b)
        ends = np.cumsum(b)
        col_stack = np.repeat(rows, b)
        finish = len(self.explicit) or len(self.sup) or self.gammas
        pair0 = np.cumsum(a) - a  # each layout row's first (row, f rank) pair
        zeros = len(val) - len(rows)  # the runs of zeros over whole rows
        heights, starts, stops = a.tolist(), (ends - b).tolist(), ends.tolist()
        c0 = j0 = 0
        while j0 < len(rows):
            h = heights[j0]
            most = max(2, cells // h // 2 * 2)
            if c0 + most < stops[j0] or c0 > starts[j0]:  # a row too wide for one band
                j1, c1 = j0, min(c0 + most, stops[j0])
            else:  # as many whole rows as fit
                j1 = max(j0, int(np.searchsorted(ends, c0 + most, "right")) - 1)
                c1 = stops[j1]
            w = c1 - c0
            if j0 == j1:  # one row: its runs in order
                p = int(pair0[j0])
                q = slice(int(first[p]), int(first[p + h]))
                if w % 2:  # each f rank's last run, its zeros
                    tails = first[p + 1:p + h + 1] - 1 - first[p]
            else:  # f rank by f rank, each row's runs, or its zeros above its own ranks
                J = np.arange(j0, j1 + 1)
                r = np.arange(h)[:, None]
                live = r < a[J]
                p = np.where(live, pair0[J] + r, 0)
                n = np.where(live, first[p + 1] - first[p], 1).ravel()
                q0 = np.where(live, first[p], zeros + J).ravel()
                ran = np.cumsum(n)
                q = np.repeat(q0 - (ran - n), n) + np.arange(ran[-1])
                tails = ran[len(J) - 1::len(J)] - 1
            n = np.minimum(end[q], c1 - 1)
            n -= np.maximum(start[q], c0 - 1)
            np.maximum(n, 0, out=n)
            if w % 2:  # a column of zeros at the end of each f rank
                n[tails] += 1
            m = np.repeat(val[q], n).reshape(h, w + w % 2)
            c = m.view(np.complex128)[::-1]
            np.cumsum(c, axis=0, out=c)
            if finish:
                at = col_stack[c0:c1]
                self._finish(self._distort(m[:, :w].T, at), at)
            yield c0, m[:, :w]
            c0, j0 = c1, j0 if c1 < stops[j1] else j1 + 1

    def _runs(self, RF, RG, rows, a, b):
        """The suffix sums along g of ``level_bands``' table as runs along
        each pair (j, r) of a layout row j and an f rank r < a[j].  They
        change only at the cells that hold a point: a pair holds one run per
        such cell, its columns from the cell below (exclusive) up to the
        cell, valued at the cell's suffix sum, then one run of zeros up to
        the row's last column.  A cell sums its points' weights in index
        order, as bincount adds them, and its suffix sum adds the one of the
        cell above it, as the cumsum from the top does (an empty cell adds an
        exact +0.0).  Returns (val, start, end, first): a run holds the
        columns start < c <= end; pair p, the (sum of a before j) + r-th,
        holds the runs first[p] to first[p + 1] - 1; then come one run of
        zeros over each layout row's columns, in layout order."""
        k = len(rows)
        layout = np.empty(k, dtype=np.int64)
        layout[rows] = np.arange(k)
        live = RF >= 0
        live &= RG >= 0
        at = np.flatnonzero(live)  # points in index order, row by row
        i, x = np.divmod(at, RF.shape[1])
        j = layout[i]
        pair0 = np.cumsum(a) - a
        bmax = int(b.max())
        key = (pair0[j] + RF.take(at)) * bmax + RG.take(at)
        order = np.argsort(key, kind="stable")
        key = key[order]
        first = np.empty(len(key), dtype=bool)
        first[:1] = True
        np.not_equal(key[1:], key[:-1], out=first[1:])
        suffix = np.bincount(np.cumsum(first) - 1, self.W.take((i * self.N + x)[order]))
        pair, s = np.divmod(key[first], bmax)
        P = int(pair0[-1] + a[-1])
        count = np.bincount(pair, minlength=P)
        ends = np.cumsum(count)
        if count.max() > 1:  # cell by cell down each pair from its top cell
            by_count = np.argsort(-count, kind="stable")
            top, depth = ends[by_count] - 1, count[by_count]
            for d in range(1, int(depth[0])):
                q = top[:np.count_nonzero(depth > d)] - d
                suffix[q] += suffix[q + 1]
        off = np.cumsum(b) - b
        last = off + b - 1
        pair_row = np.repeat(np.arange(k), a)
        first = np.empty(P + 1, dtype=np.int64)  # each pair's cells, then its zeros
        first[:P] = ends - count + np.arange(P)
        first[P] = len(pair) + P
        val = np.zeros(first[P] + k)
        end = np.empty(first[P] + k, dtype=np.int64)
        end[first[1:] - 1] = last[pair_row]
        at = np.arange(len(pair)) + pair
        val[at], end[at] = suffix, off[pair_row[pair]] + s
        end[first[P]:] = last
        start = np.empty_like(end)
        start[0], start[1:] = -1, end[:-1]
        start[first[:P]] = off[pair_row] - 1
        start[first[P]:] = off - 1
        return val, start, end, first


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
    = violation, NaN for inf - inf), a fresh array.  ``value`` maps an array
    of masks to their measures; monotone pairs have b = a | one extra point."""
    if prop == "monotone":
        return value(b) - value(a)
    m = value(a) + value(b)
    if prop != "subadditive":
        m -= value(a & b)
    m -= value(a | b)
    if prop == "modular":
        np.subtract(MODULAR_TOL, np.abs(m, out=m), out=m)
    return m


def _worst(k: int, blocks) -> list:
    """Each of k rows' smallest margin over ``blocks`` of (margins (k, ...),
    pair) and, if it is a violation, its pair of masks ``pair(j)``, j its
    flat index in its row of the block: the first minimum in C order, the
    blocks coming in C order.  The blocks are drawn under one ``np.errstate``;
    an inf - inf margin (NaN) is no evidence either way and is skipped."""
    lows, at, r = [], [], np.arange(k)
    with np.errstate(invalid="ignore"):
        for margins, pair in blocks:
            m = margins.reshape(k, -1)
            if m.shape[1]:
                j = m.argmin(1)
                low = m[r, j].tolist()
                if math.isnan(sum(low)):  # a NaN low: argmin stops at the first NaN
                    m[np.isnan(m)] = math.inf
                    j = m.argmin(1)
                    low = m[r, j].tolist()
                lows.append(low)
                at.append((pair, j.tolist()))
    out = []
    for i, row in enumerate(zip(*lows) if lows else [[math.inf]] * k):
        b = row.index(slack := min(row))
        out.append((slack, None if slack >= -MODULAR_TOL else at[b][0](at[b][1][i])))
    return out


def _exhaustive_blocks(prop: str, v: np.ndarray):
    """Every pair's margins from the (k, 2^n) value tables v in blocks of C
    order, each (k, ...) with its ``pair`` function (see ``_worst``): bit i's
    monotone pairs are the halves of ``v.reshape(k, -1, 2, 1 << i)``, as many
    bits to a block as fit.  The other margins are symmetric bit for bit (IEEE
    addition commutes), so rows a0.. read only the columns b >= a0: a skipped
    pair (a, b), b < a0, mirrors the pair (b, a) of an earlier block."""
    k, N = v.shape
    if prop == "monotone":  # block row i - i0: bit i's margins
        n, half = N.bit_length() - 1, N >> 1
        for i0 in range(0, n, step := max(1, _BLOCK_PAIRS // (k * half))):
            margins = np.empty((k, min(step, n - i0), half))
            for i in range(i0, i0 + margins.shape[1]):
                u = v.reshape(k, -1, 2, 1 << i)
                np.subtract(u[:, :, 1], u[:, :, 0], out=margins[:, i - i0].reshape(k, -1, 1 << i))

            def pair(j, i0=i0):
                i, j = i0 + j // half, j % half
                a = (j >> i << i + 1) | (j & ((1 << i) - 1))
                return a, a | 1 << i
            yield margins, pair
        return
    masks, a0 = np.arange(N), 0
    while a0 < N:
        w = N - a0
        rows = max(1, _BLOCK_PAIRS // (k * w))
        yield (_margins(prop, lambda m: v.take(m, 1), masks[a0:a0 + rows, None], masks[None, a0:]),
               lambda j, a0=a0, w=w: (a0 + j // w, a0 + j % w))
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
    # rng.bytes(nbytes) takes ceil(nbytes / 4) uint32 words: 64-bit outputs' halves, low first
    nbytes = (n + 7) // 8
    words = (nbytes + 3) // 4
    u = rng.bit_generator.random_raw(trials * words).astype("<u8").view("<u4").reshape(-1, 2, words)
    if n <= MAX_EXPLICIT_N:
        ab = u[..., 0].astype(np.int64) & full
    else:
        rows = u.astype("<u4").reshape(-1, words)
        ab = np.array([int.from_bytes(r.tobytes()[:nbytes], "little") & full
                       for r in rows], dtype=object).reshape(trials, 2)
    return ab[:, 0], ab[:, 1]


def _sampled_blocks(prop: str, c: Capacity, seed: int, trials: int):
    """The one block of a sampled check of c: ``trials`` pairs drawn from ``seed``."""
    n, C = c.space.n, CapacityStack([c])
    # the value table costs 2^n measures: trials that read fewer masks (2 per
    # monotone trial, 4 otherwise) measure them block by block, to the same bits
    reads = trials * (2 if prop == "monotone" else 4)
    if n <= MAX_EXPLICIT_N and (c.kind == "explicit" or 2**n <= reads):
        value = C.values()[0].take
    else:
        step = max(1, _BLOCK_CELLS // n)

        def value(masks):
            blocks = np.array_split(masks, range(step, len(masks), step))
            return np.concatenate([C.measure(subset_rows(b.tolist(), C.n.repeat(len(b)), n)[None])[0]
                                   for b in blocks])

    a, b = _sampled_pairs(prop, n, np.random.default_rng(seed), trials)
    yield _margins(prop, value, a, b), lambda j: (int(a[j]), int(b[j]))


def check_rows(prop: str, caps: Sequence[Capacity], mode: str = "auto", seed: int = 0,
               trials: int = SAMPLED_TRIALS) -> list:
    """One ``PropertyReport`` of ``prop`` per capacity, each the one its check
    gives alone; the first row that cannot be checked in ``mode`` raises its
    own error.  Exhaustive rows go a stack per point count and depth of
    normalization, in parts of at most _BLOCK_PAIRS >> n rows."""
    if mode not in _MODES:
        raise DomainError(f"unknown check mode {mode!r}: expected one of {', '.join(_MODES)}")
    if prop not in _PROPERTIES:
        raise DomainError(f"unknown property {prop!r}: expected one of {', '.join(_PROPERTIES)}")
    out, groups = [None] * len(caps), {}
    for i, c in enumerate(caps):
        n, known, m = c.space.n, c.structural(prop), mode
        # above MAX_EXPLICIT_N every pair count exceeds the limit: no big integer
        few_pairs = n <= MAX_EXPLICIT_N and (
            n * 2 ** (n - 1) if prop == "monotone" else 4**n) <= EXHAUSTIVE_PAIR_LIMIT
        if m == "auto":
            m = "exhaustive" if few_pairs else "sampled" if known is None else "structural"
        if m == "structural":
            if known is None:
                raise DomainError(f"{prop} is not known structurally for kind {c.kind!r}")
            out[i] = PropertyReport(prop, known, "structural", slack=0.0)
        elif m == "sampled":
            if trials < 1:
                raise DomainError("a sampled check needs at least one trial")
            ((slack, witness),) = _worst(1, _sampled_blocks(prop, c, seed, trials))
            out[i] = PropertyReport(prop, witness is None, "sampled", slack, witness, trials, seed)
        elif not few_pairs:
            raise DomainError("pair count too large for exhaustive checking")
        else:  # a stack holds derived rows only with rows as deeply derived
            base, depth = c, 0
            while base.kind == "derived":
                base, depth = base.base, depth + 1
            groups.setdefault((n, depth), []).append(i)
    for (n, _), rows in groups.items():
        for p in range(0, len(rows), step := max(1, _BLOCK_PAIRS >> n)):
            part = rows[p:p + step]
            v = CapacityStack([caps[i] for i in part]).values()
            for i, (slack, witness) in zip(part, _worst(len(part), _exhaustive_blocks(prop, v))):
                out[i] = PropertyReport(prop, witness is None, "exhaustive", slack, witness)
    return out


def check_monotone(c: Capacity, mode: str = "auto", seed: int = 0,
                   trials: int = SAMPLED_TRIALS) -> PropertyReport:
    return check_rows("monotone", [c], mode, seed, trials)[0]


def check_submodular(c: Capacity, mode: str = "auto", seed: int = 0,
                     trials: int = SAMPLED_TRIALS) -> PropertyReport:
    return check_rows("submodular", [c], mode, seed, trials)[0]


def check_subadditive(c: Capacity, mode: str = "auto", seed: int = 0,
                      trials: int = SAMPLED_TRIALS) -> PropertyReport:
    return check_rows("subadditive", [c], mode, seed, trials)[0]


def check_modular(c: Capacity, mode: str = "auto", seed: int = 0,
                  trials: int = SAMPLED_TRIALS) -> PropertyReport:
    return check_rows("modular", [c], mode, seed, trials)[0]
