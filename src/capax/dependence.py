"""Comonotonicity and positive-dependence detection, plus the uniform
driver construction where a non-comonotone pair is positively dependent
with respect to the Lukasiewicz operator."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .capacity import Capacity, make_grid_lebesgue, mask_bools
from .integrals import SampleFunction, sample_function
from .operators import AggOperator
from .xreal import UNIT, DomainError

POSDEP_TOL = 1e-12


@dataclass
class DependenceReport:
    kind: str  # "comonotone" | "positively_dependent"
    holds: bool
    witness: Optional[tuple] = None
    op: Optional[str] = None
    slack: float = float("inf")  # worst margin found (posdep)


def is_comonotone(f: SampleFunction, g: SampleFunction) -> DependenceReport:
    """Check (f(x)-f(y))(g(x)-g(y)) >= 0 for all point pairs, exactly and
    in O(n log n): the pair is comonotone iff sorting the points by (f, g)
    leaves g nondecreasing.  The witness is a pair (x, y) with
    f(x) > f(y) and g(x) < g(y)."""
    if f.space.n != g.space.n:
        raise DomainError("comonotonicity needs a common space")
    order = np.lexsort((g.values, f.values))
    gs = g.values[order]
    drops = np.flatnonzero(gs[1:] < gs[:-1])
    w = None if len(drops) == 0 else (int(order[drops[0] + 1]), int(order[drops[0]]))
    return DependenceReport("comonotone", holds=w is None, witness=w)


def _levels(values: np.ndarray) -> np.ndarray:
    """Ascending distinct values of ``values`` together with 0: the first
    of each run of equal sorted values."""
    v = np.concatenate(([0.0], values))
    v.sort()
    return v[np.concatenate(([True], v[1:] != v[:-1]))]


def check_positive_dependence(f: SampleFunction, A: int, g: SampleFunction,
                              B: int, c: Capacity, tri: AggOperator,
                              tol: float = POSDEP_TOL) -> DependenceReport:
    """Check mu({f|_A >= a} n {g|_B >= b}) >= mu({f|_A >= a}) tri mu({g|_B >= b}).

    Both sides are step functions constant between consecutive function
    values, so checking the distinct-value cross product (plus level 0) is
    exact, not sampled.
    """
    n = c.space.n
    if f.space.n != n or g.space.n != n:
        raise DomainError("functions and capacity must share a space")
    selA = mask_bools(A, n)
    selB = mask_bools(B, n)
    levels_a = _levels(f.values[selA])
    levels_b = _levels(g.values[selB])

    FA = (f.values >= levels_a[:, None]) & selA
    GB = (g.values >= levels_b[:, None]) & selB
    everything = np.ones((1, n), dtype=bool)
    mFA = c.measure_meet(FA, everything)
    mGB = c.measure_meet(GB, everything)
    joint_w = c.measure_meet(FA, GB)

    rhs = tri.vec(mFA, mGB.T)
    margin = joint_w - rhs
    i, j = np.unravel_index(np.argmin(margin), margin.shape)
    worst = float(margin[i, j])
    holds = worst >= -tol
    witness = None if holds else (float(levels_a[i]), float(levels_b[j]),
                                  float(joint_w[i, j]), float(rhs[i, j]))
    return DependenceReport("positively_dependent", holds=holds,
                            witness=witness, op=tri.name, slack=worst)


INCREASING_BIJECTIONS = {
    "identity": lambda t: t,
    "square": lambda t: t**2,
    "sqrt": np.sqrt,
}


def make_uniform_example(phi_id: str, psi_id: str, n: int):
    """Discretized uniform driver U on [0,1] with f = phi(U) and
    h = 1 - psi(U): not comonotone, but positively dependent with respect
    to the Lukasiewicz operator."""
    try:
        phi = INCREASING_BIJECTIONS[phi_id]
        psi = INCREASING_BIJECTIONS[psi_id]
    except KeyError as e:
        raise DomainError(f"unknown bijection id {e.args[0]!r}")
    space, P = make_grid_lebesgue(0.0, 1.0, n)
    u = space.coord_array()
    f = sample_function(space, np.clip(phi(u), 0.0, 1.0), UNIT)
    h = sample_function(space, np.clip(1.0 - psi(u), 0.0, 1.0), UNIT)
    return f, h, P
